import io
import math

import numpy as np
import pytest

from twowell.microstructure import (
    horizontal_branched,
    k1_cell,
    k2_boundary_cell,
    k2_cell,
    laminate,
    vertical_branched_k1,
)
from twowell.piecewise import (
    DomainError,
    PiecewiseDeformation,
    Rect,
    SideRef,
    coverage_check,
    identity_deformation,
    mirror_x,
    rotate_90,
    rotate_values,
    write_manifest,
)
from twowell.profiles import sawtooth
from twowell.wells import CASE_K1, CASE_K2, WellSpec, rotation

from piecewise_oracles import (
    BoundaryPointError,
    edge_points,
    located,
    oracle_boundary_points,
    oracle_coverage_check,
    oracle_evaluate,
    oracle_locate,
    oracle_second_gradient,
    second_gradient,
    side_grad,
)

ELL, H, ALPHA = 1.0, 0.25, 0.3


def test_identity_field():
    dom = Rect(0.0, 0.0, 2.0, 1.0)
    d = identity_deformation(dom)
    pts = np.array([[0.5, 0.5], [2.0, 1.0], [0.0, 0.0]])
    u, du = d.evaluate(pts)
    np.testing.assert_allclose(u, pts)
    np.testing.assert_allclose(du, np.broadcast_to(np.eye(2), (3, 2, 2)))
    np.testing.assert_allclose(second_gradient(d, np.array([1.0, 0.5])), 0.0)
    rep = coverage_check(d)
    assert rep.ok and rep.area_residual == 0.0


def test_point_outside_domain_rejected():
    d = identity_deformation(Rect(0.0, 0.0, 1.0, 1.0))
    with pytest.raises(DomainError):
        d.evaluate(np.array([1.5, 0.5]))


def test_k2_cell_left_edge_value_formula():
    d = k2_cell((0.0, 0.0), ELL, H, ALPHA)
    ys = np.linspace(0.0, H, 91)
    u, _ = d.evaluate(np.column_stack([np.zeros_like(ys), ys]))
    expect = np.column_stack([np.zeros_like(ys), ys + ALPHA * sawtooth(H / 2.0, ys)])
    assert np.abs(u - expect).max() < 1e-14


def test_k2_cell_exact_well_region():
    d = k2_cell((0.0, 0.0), ELL, H, ALPHA)
    B2 = np.diag([1.0, 1.0 + ALPHA])
    for p in ([0.3, 0.01], [0.7, H - 0.01], [0.02, 0.02]):
        _, du = d.evaluate(np.array(p))
        np.testing.assert_array_equal(du, B2)


def test_gradient_matches_finite_differences():
    d = k2_cell((0.0, 0.0), ELL, H, ALPHA)
    rng = np.random.default_rng(4)
    step = 1e-6 * min(ELL, H)
    pts = np.column_stack([rng.uniform(0.05, 0.95, 1000),
                           rng.uniform(0.005, H - 0.005, 1000)])
    _, du = d.evaluate(pts)
    for axis, delta in enumerate([(step, 0.0), (0.0, step)]):
        up, _ = d.evaluate(pts + delta)
        um, _ = d.evaluate(pts - delta)
        fd = (up - um) / (2.0 * step)
        err = np.abs(fd - du[:, :, axis])
        # points straddling an interface have O(1) mismatch; exclude them
        good = err.max(axis=1) < 1e-3
        assert good.mean() > 0.9
        assert err[good].max() < 1e-6 * max(1.0, np.abs(du[good]).max())


def test_second_gradient_matches_finite_differences():
    d = k2_cell((0.0, 0.0), ELL, H, ALPHA)
    rng = np.random.default_rng(9)
    step = 1e-6 * min(ELL, H)
    pts = np.column_stack([rng.uniform(0.1, 0.9, 400),
                           rng.uniform(0.01, H - 0.01, 400)])
    checked = 0
    for p in pts:
        try:
            hess = second_gradient(d, p)
        except BoundaryPointError:
            continue
        _, dup_x = d.evaluate(p + [step, 0.0])
        _, dum_x = d.evaluate(p - [step, 0.0])
        _, dup_y = d.evaluate(p + [0.0, step])
        _, dum_y = d.evaluate(p - [0.0, step])
        fd_x = (dup_x - dum_x) / (2.0 * step)
        fd_y = (dup_y - dum_y) / (2.0 * step)
        if max(np.abs(fd_x - hess[:, :, 0]).max(),
               np.abs(fd_y - hess[:, :, 1]).max()) > 1e-3:
            continue  # finite difference crossed an interface
        scale = max(1.0, np.abs(hess).max())
        assert np.abs(fd_x - hess[:, :, 0]).max() < 1e-5 * scale
        assert np.abs(fd_y - hess[:, :, 1]).max() < 1e-5 * scale
        checked += 1
    assert checked > 300


def test_second_gradient_rejects_boundary_points():
    d = k2_cell((0.0, 0.0), ELL, H, ALPHA)
    with pytest.raises(BoundaryPointError):
        second_gradient(d, np.array([0.5, 0.0]))


def test_second_gradient_bound_on_transition_piece():
    # |D^2 u| <= c alpha h / ell^2 with c from the quintic ramp bounds.
    ell, h, a = 1.0, 0.125, 0.2
    d = k2_cell((0.0, 0.0), ell, h, a)
    rng = np.random.default_rng(2)
    worst = 0.0
    for p in np.column_stack([rng.uniform(0.05, 0.95, 200),
                              rng.uniform(0.01 * h, 0.99 * h, 200)]):
        try:
            hess = second_gradient(d, p)
        except BoundaryPointError:
            continue
        worst = max(worst, math.sqrt(float(np.sum(hess ** 2))))
    # ramp bounds: |g''| <= 60/sqrt(5)? measured constant stays below 60 a h / ell^2
    assert worst <= 60.0 * a * h / ell ** 2


def test_boundary_points_resolve_to_lower_piece():
    d = k2_cell((0.0, 0.0), ELL, H, ALPHA)
    xs = np.array([0.3, 0.6])
    g = d.parts[0].groups[0]
    b1 = g.proto.upper.value(xs)  # curve between pieces 1 and 2
    _, du = d.evaluate(np.column_stack([xs, b1]))
    B2 = np.diag([1.0, 1.0 + ALPHA])
    np.testing.assert_array_equal(du[0], B2)
    np.testing.assert_array_equal(du[1], B2)


def test_mirror_x_formula_and_identity_boundary():
    d = k2_boundary_cell((0.0, 0.0), ELL, H, ALPHA)
    m = mirror_x(d, ELL)
    rng = np.random.default_rng(13)
    pts = np.column_stack([rng.uniform(ELL, 2.0 * ELL, 64),
                           rng.uniform(0.0, H, 64)])
    um, _ = m.evaluate(pts)
    ub, _ = d.evaluate(np.column_stack([2.0 * ELL - pts[:, 0], pts[:, 1]]))
    np.testing.assert_allclose(um[:, 0], 2.0 * ELL - ub[:, 0], atol=1e-14)
    np.testing.assert_allclose(um[:, 1], ub[:, 1], atol=1e-14)
    # the boundary cell has identity data on its left edge, so the mirrored
    # field carries the identity trace on its outer right edge
    ys = np.linspace(0.0, H, 33)
    ue, _ = m.evaluate(np.column_stack([np.full_like(ys, 2.0 * ELL), ys]))
    np.testing.assert_allclose(ue, np.column_stack([np.full_like(ys, 2.0 * ELL), ys]),
                               atol=1e-14)
    ident = identity_deformation(Rect(0.0, 0.0, 1.0, 1.0))
    mi = mirror_x(ident, 1.0)
    pts = np.column_stack([rng.uniform(1.0, 2.0, 16), rng.uniform(0.0, 1.0, 16)])
    u, du = mi.evaluate(pts)
    np.testing.assert_allclose(u, pts, atol=1e-14)
    np.testing.assert_allclose(du, np.broadcast_to(np.eye(2), (16, 2, 2)), atol=1e-14)


def test_mirror_requires_right_edge():
    d = k2_cell((0.0, 0.0), ELL, H, ALPHA)
    with pytest.raises(ValueError):
        mirror_x(d, 0.5 * ELL)


def test_rotate_90_involution_and_chain_rule():
    d = k1_cell((0.0, 0.0), ELL, H, ALPHA)
    rng = np.random.default_rng(21)
    pts = np.column_stack([rng.uniform(0.0, ELL, 64), rng.uniform(0.0, H, 64)])
    u0, du0 = d.evaluate(pts)
    r2 = rotate_90(rotate_90(d))
    u2, du2 = r2.evaluate(pts)
    np.testing.assert_array_equal(u0, u2)
    np.testing.assert_array_equal(du0, du2)

    r = rotate_90(d)
    Z = np.array([[0.0, 1.0], [1.0, 0.0]])
    uz, duz = r.evaluate(pts @ Z.T)
    np.testing.assert_allclose(uz, u0 @ Z.T, atol=1e-15)
    np.testing.assert_allclose(duz, np.einsum("ab,nbc,cd->nad", Z, du0, Z), atol=1e-15)


def test_value_rotation_transform():
    d = k2_cell((0.0, 0.0), ELL, H, ALPHA)
    R = rotation(0.4)
    rv = rotate_values(d, R)
    pts = np.array([[0.3, 0.1], [0.9, 0.2]])
    u0, du0 = d.evaluate(pts)
    u1, du1 = rv.evaluate(pts)
    np.testing.assert_allclose(u1, u0 @ R.T, atol=1e-15)
    np.testing.assert_allclose(du1, np.einsum("ab,nbc->nac", R, du0), atol=1e-15)


def test_composed_transforms_match_hand_compositions():
    # u_world(p) = CL u_base(Q p + b) + c.  The mirror about x = a is
    # (S, s, S, s) with s = (2a, 0), the swap (Z, 0, Z, 0); the swap put
    # around a mirror is u = Z (S u_base(S (Z p) + s) + s), that is
    # (S Z, s, Z S, Z s).
    S = np.array([[-1.0, 0.0], [0.0, 1.0]])
    Z = np.array([[0.0, 1.0], [1.0, 0.0]])
    I, zero = np.eye(2), np.zeros(2)

    def mirror(a):
        s = np.array([2.0 * a, 0.0])
        return S, s, S, s

    def swap_around_mirror(a):
        s = np.array([2.0 * a, 0.0])
        return S @ Z, s, Z @ S, Z @ s

    unit, offset = Rect(0.0, 0.0, 1.0, 1.0), Rect(0.3, -0.2, 1.5, 0.7)
    k1, k2 = WellSpec(CASE_K1, 0.1), WellSpec(CASE_K2, 0.1)
    cases = [
        (horizontal_branched(k1, 1e-3, unit), [(I, zero, I, zero), mirror(0.5)]),
        (horizontal_branched(k2, 1e-3, unit), [(I, zero, I, zero), mirror(0.5)]),
        (horizontal_branched(k2, 1e-3, offset),
         [(I, zero, I, zero), mirror(0.3 + 1.5 / 2.0)]),
        (vertical_branched_k1(k1, 1e-3, unit), [(Z, zero, Z, zero), swap_around_mirror(0.5)]),
        (rotate_90(mirror_x(k2_cell((0.0, 0.0), ELL, H, ALPHA), ELL)),
         [swap_around_mirror(ELL)]),
    ]
    for d, expected in cases:
        assert len(d.parts) == len(expected)
        for part, want in zip(d.parts, expected):
            got = part.folded()
            assert len(got) == 4
            for a, e in zip(got, want):
                assert np.array_equal(a, e), (d.meta, a, e)

    buf = io.StringIO()
    write_manifest(vertical_branched_k1(k1, 1e-3, unit), buf)
    parts = [line for line in buf.getvalue().splitlines() if line.startswith("part ")]
    assert parts[0].startswith("part 0 transforms=swap-rotate cells=")
    assert parts[1].startswith("part 1 transforms=swap-rotate,mirror(x=0.5) cells=")


def test_coverage_check_negative_control():
    d = k2_cell((0.0, 0.0), ELL, H, ALPHA)
    part = d.parts[0]
    broken = PiecewiseDeformation(d.domain,
                                  (type(part)(part.groups[1:], part.jumps,
                                              part.transform, part.support),))
    rep = coverage_check(broken, boundary_tol=None)
    assert not rep.ok
    assert any("area" in f for f in rep.failures)


def test_gradient_jump_values():
    def jump(jg, t):
        # Second side minus first; a laminate's part has the identity transform.
        jx, jy = jg.proto.points(np.array([t]))
        s1, s2 = jg.proto.sides()
        return (side_grad(s2, jx, jy) - side_grad(s1, jx, jy))[0]

    lam2 = laminate(Rect(0.0, 0.0, 1.0, 1.0), 0.25, ALPHA, "k2")
    part = lam2.parts[0]
    expected = np.diag([0.0, 2.0 * ALPHA])
    seen = []
    for jg in part.jumps:
        j = jump(jg, 0.5)
        seen.append(j)
        norm = np.linalg.norm(j)
        assert norm == pytest.approx(0.0, abs=1e-14) or \
            np.abs(np.abs(j) - expected).max() < 1e-14
    assert any(np.linalg.norm(j) > 0.1 for j in seen)
    # the period line (same sawtooth slope on both sides) carries no jump
    assert any(np.linalg.norm(j) < 1e-14 for j in seen)

    lam1 = laminate(Rect(0.0, 0.0, 1.0, 1.0), 0.25, ALPHA, "k1")
    part = lam1.parts[0]
    jumps = [jump(jg, 0.3) for jg in part.jumps]
    big = [j for j in jumps if np.linalg.norm(j) > 0.1]
    for j in big:
        np.testing.assert_allclose(np.abs(j), [[0.0, 2.0 * ALPHA], [0.0, 0.0]],
                                   atol=1e-14)


def test_manifest_roundtrip_smoke():
    d = k2_boundary_cell((0.0, 0.0), ELL, H, ALPHA)
    buf = io.StringIO()
    write_manifest(d, buf)
    text = buf.getvalue()
    assert text.startswith("domain x0=0.0")
    assert text.count("cell part=0 family=k2bd") == 5
    assert "jump part=0" in text


def test_manifest_takes_path_objects(tmp_path):
    # A pathlib.Path was once taken for a stream (AttributeError: no write).
    d = horizontal_branched(WellSpec(CASE_K2, ALPHA), 1e-3, Rect(0.0, 0.0, 1.0, 1.0))
    write_manifest(d, str(tmp_path / "str.txt"))
    write_manifest(d, tmp_path / "path.txt")
    text = (tmp_path / "str.txt").read_bytes()
    assert text.startswith(b"domain ") and b"tag=k2cell-b1" in text
    assert (tmp_path / "path.txt").read_bytes() == text


# ---------------------------------------------------------------------------
# x-slab locator and one continuity pass per jump group, against the
# per-group and per-instance oracles of ``piecewise_oracles``.
# ---------------------------------------------------------------------------

K1, K2 = WellSpec(CASE_K1, 0.1), WellSpec(CASE_K2, 0.1)
UNIT = Rect(0.0, 0.0, 1.0, 1.0)
ORACLE_CASES = {
    # The four constructions of the benchmark's construct_check workload.
    "k1-1e-3": lambda: horizontal_branched(K1, 1e-3, UNIT),
    "k2-1e-4": lambda: horizontal_branched(K2, 1e-4, UNIT),
    "k1-1e-4": lambda: horizontal_branched(K1, 1e-4, UNIT),
    "k2-1e-5": lambda: horizontal_branched(K2, 1e-5, UNIT),
    "k1-vertical-0.5x2": lambda: vertical_branched_k1(K1, 1e-3, Rect(0.0, 0.0, 0.5, 2.0)),
    "k2-theta0.3-N3": lambda: horizontal_branched(K2, 1e-4, UNIT, theta=0.3, N=3),
    "k1-value-rotation": lambda: rotate_values(horizontal_branched(K1, 1e-3, UNIT),
                                               rotation(0.7)),
    "k2-offset": lambda: horizontal_branched(K2, 1e-4, Rect(0.3, -0.2, 2.0, 0.5)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_coverage_report_matches_per_instance_oracle(name):
    d = ORACLE_CASES[name]()
    assert repr(coverage_check(d)) == repr(oracle_coverage_check(d))


def _value_calls(monkeypatch, d):
    """``SideRef.value`` calls of one continuity pass (no boundary trace)."""
    calls = []
    real = SideRef.value

    def counted(self, *args):
        calls.append(self)
        return real(self, *args)

    monkeypatch.setattr(SideRef, "value", counted)
    coverage_check(d, boundary_tol=None)
    return len(calls)


def test_continuity_pass_checks_each_shared_jump_group_once(monkeypatch):
    # k2's mirrored half reuses the first half's jump groups, all but the
    # centre lines: two side evaluations per distinct group.
    d = horizontal_branched(K2, 1e-4, UNIT)
    walk = [jg for _, jg in d.iter_jump_groups()]
    distinct = {id(jg) for jg in walk}
    assert len(d.parts) == 2 and len(distinct) < len(walk)
    assert _value_calls(monkeypatch, d) == 2 * len(distinct)


def test_continuity_pass_walks_every_group_of_k1(monkeypatch):
    # k1's halves flip the shear sign: separate groups, both passes kept.
    d = horizontal_branched(K1, 1e-4, UNIT)
    walk = [jg for _, jg in d.iter_jump_groups()]
    assert len(d.parts) == 2 and len({id(jg) for jg in walk}) == len(walk)
    assert _value_calls(monkeypatch, d) == 2 * len(walk)


@pytest.mark.parametrize("n", [1, 4, 7, 256])
@pytest.mark.parametrize("rect", [Rect(0.3, -0.2, 2.0, 0.5), Rect(1e5, -3e4, 1.0, 1.0),
                                  Rect(-0.7, 0.1, 1.0 / 3.0, math.pi)])
def test_boundary_points_match_per_point_loop(rect, n):
    got, want = rect.boundary_points(n), oracle_boundary_points(rect, n)
    assert got.shape == want.shape == (n, 2)
    assert np.array_equal(got, want)


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", sorted(ORACLE_CASES))
def test_locator_matches_per_group_oracle(name):
    d = ORACLE_CASES[name]()
    dom = d.domain
    rng = np.random.default_rng(17)
    cloud = np.column_stack([rng.uniform(dom.x0, dom.x1, 1500),
                             rng.uniform(dom.y0, dom.y1, 1500)])
    pts = np.concatenate([cloud, edge_points(d, rng)])
    assert located(PiecewiseDeformation._locate, d, pts) == located(oracle_locate, d, pts)
    for a, b in zip(d.evaluate(pts), oracle_evaluate(d, pts)):
        assert _same_bits(a, b)
    try:
        hess = second_gradient(d, cloud)
    except BoundaryPointError:
        with pytest.raises(BoundaryPointError):
            oracle_second_gradient(d, cloud)
    else:
        assert _same_bits(hess, oracle_second_gradient(d, cloud))


def test_locator_slab_covers_rounding_far_from_origin():
    # At x ~ 1e5 one ulp (1.5e-11) exceeds the geometric tolerance (1e-11):
    # the slab must still hand every group the points its in-x test accepts,
    # here the floats within four ulps of every group's left and right edge.
    d = horizontal_branched(K2, 1e-3, Rect(1e5, -3e4, 1.0, 1.0))
    pts = []
    for part in d.parts:
        Q, b, _, _ = part.folded()
        for g in part.groups:
            for x in (g.x0, g.x0 + g.proto.width):
                xs = x + np.arange(-4, 5) * np.spacing(x)
                base = np.column_stack([xs, np.full_like(xs, g.y0 + 0.37 * g.dy)])
                pts.extend((base - b) @ np.linalg.inv(Q).T)
    pts = np.array(pts)
    pts = pts[d.domain.contains(pts)]
    assert located(PiecewiseDeformation._locate, d, pts) == located(oracle_locate, d, pts)
