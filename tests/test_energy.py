import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest

from twowell import energy, kernels
from twowell.energy import (
    EnergyBreakdown,
    QuadratureSpec,
    _column_tv,
    _gauss,
    _integrate_lines,
    _mirror_fold,
    _tv_bulk_integrand,
    elastic_energy,
    total_energies,
    total_energy,
    tv_bulk,
    tv_jump,
)
from twowell.microstructure import (
    best_construction,
    branching_schedule,
    assemble_branched,
    horizontal_branched,
    k1_boundary_cell,
    k1_cell,
    k2_boundary_cell,
    k2_cell,
    laminate,
    vertical_branched_k1,
)
from twowell.piecewise import (
    PiecewiseDeformation,
    Rect,
    ScalarProfilePiece,
    VerticalJump,
    gradient_jump,
    identity_deformation,
    mirror_x,
    rotate_values,
)
from twowell.wells import CASE_K1, CASE_K2, WellSpec, rotation, well_matrices


# ---------------------------------------------------------------------------
# Per-prototype oracle: the quadrature as it ran before prototypes were
# batched, one adaptive loop per distinct prototype with scalar fields.  The
# batched engine must reproduce it bit for bit: values and warnings.
# ---------------------------------------------------------------------------


def push_forward(CL, du, Q):
    """``CL @ du @ Q`` over 2x2 batches, the products written out as the
    quadrature wrote them before the conjugation became entry-wise."""
    M = CL[..., :, :1] * du[..., None, 0, :]
    M += CL[..., :, 1:] * du[..., None, 1, :]
    F = M[..., :, :1] * Q[..., None, 0, :]
    F += M[..., :, 1:] * Q[..., None, 1, :]
    F += 0.0
    return F


def _oracle_integrate(wave_values, roots, order, measure, quad, warnings, what):
    """(integral, error estimate) of one prototype over its root panels."""
    xs1, ws1 = _gauss(order)
    xs2, ws2 = _gauss(2 * order)
    root_size = sum(np.prod(roots[:, 1::2] - roots[:, 0::2], axis=1).tolist())
    total = error = 0.0
    panels = roots
    depth = 0
    while True:
        coarse = wave_values(panels, xs1, ws1)
        fine = wave_values(panels, xs2, ws2)
        if depth == 0:
            scale = max(abs(sum(fine.tolist())), 1e-300)
        err = np.abs(fine - coarse)
        frac = np.prod(panels[:, 1::2] - panels[:, 0::2], axis=1) / root_size
        tol = np.maximum(quad.rel_tol * scale * np.maximum(frac, 1e-6),
                         energy._NOISE_FLOOR * measure * frac)
        done = err <= tol
        if depth >= quad.max_refinement_depth:
            left_over = float(np.sum(err[~done]))
            if left_over > 10.0 * quad.rel_tol * scale:
                warnings.append(f"{what} quadrature hit the refinement limit")
            done = np.ones_like(done)
        total += float(np.sum(fine[done]))
        error += float(np.sum(err[done]))
        rest = panels[~done]
        if not len(rest):
            return total, error
        lo, hi = rest[:, 0::2], rest[:, 1::2]
        mid = 0.5 * (lo + hi)
        children = []
        for upper in itertools.product((False, True), repeat=lo.shape[1]):
            up = np.array(upper[::-1])
            children.append(np.stack([np.where(up, mid, lo), np.where(up, hi, mid)],
                                     axis=2).reshape(len(rest), -1))
        panels = np.vstack(children)
        depth += 1


def _oracle_area(proto, integrand, quad, warnings):
    """(integral, error) of ``integrand(x, y)`` (flat point arrays) over one
    cell by the 2D tensor rule on its graph parameterization ``(x, s)``."""
    def wave_values(panels, xs, ws):
        ax, bx, as_, bs = panels.T
        x = ax[:, None] + (bx - ax)[:, None] * xs
        s = as_[:, None] + (bs - as_)[:, None] * xs
        lo = proto.lower.value(x)
        hi = proto.upper.value(x)
        y = (1.0 - s[:, None, :]) * lo[:, :, None] + s[:, None, :] * hi[:, :, None]
        X = np.broadcast_to(x[:, :, None], y.shape)
        vals = integrand(X.ravel(), y.ravel()).reshape(y.shape)
        return np.einsum("mi,mj,mij->m", ws * (bx - ax)[:, None], ws * (bs - as_)[:, None],
                         vals * (hi - lo)[:, :, None])

    return _oracle_integrate(wave_values, np.array([[0.0, proto.width, 0.0, 1.0]]),
                             quad.base_order, abs(proto.area()), quad, warnings, "cell")


def _oracle_line(edges, integrand, quad, warnings, what="line", measure=None):
    """(integral, error) of ``integrand(t)`` over (edges[0], edges[-1]), one
    root panel between each pair of consecutive edges; ``measure`` scales
    the noise floor (by default the interval's length)."""
    def wave_values(ab, xs, ws):
        a, b = ab.T
        t = a[:, None] + (b - a)[:, None] * xs
        vals = integrand(t.ravel()).reshape(t.shape)
        return np.einsum("mi,mi->m", ws * (b - a)[:, None], vals)

    roots = np.array(list(zip(edges[:-1], edges[1:])))
    return _oracle_integrate(wave_values, roots, quad.line_points,
                             edges[-1] - edges[0] if measure is None else measure,
                             quad, warnings, what)


def _oracle_cell(proto, integrand, quad, warnings):
    """(integral, error) of ``integrand(x, y)`` (flat point arrays) over one
    cell, as a line integral over x of its columns: ``(upper - lower)(x)``
    times the integrand at one point of the column where the map's gradient
    reads x alone, else its mean by the ``base_order``-point Gauss rule
    across the column."""
    s, w = _gauss(quad.base_order)

    def column(x):
        lo, hi = proto.lower.value(x), proto.upper.value(x)
        if not proto.map.grad_reads_y:
            return (hi - lo) * integrand(x, lo)
        y = (1.0 - s)[:, None] * lo + s[:, None] * hi
        vals = integrand(np.broadcast_to(x, y.shape).ravel(), y.ravel()).reshape(y.shape)
        return (hi - lo) * np.einsum("k,kn->n", w, vals)

    return _oracle_line((0.0, proto.width), column, quad, warnings, "cell", abs(proto.area()))


def _oracle_tv_bulk_cell(proto, quad, warnings):
    def integrand(x):
        A, B, R2 = proto.map.hess_profile(x)
        return _column_tv(A, B, R2, proto.lower.value(x), proto.upper.value(x))

    return _oracle_line((0.0, *proto.map.kinks(), proto.width), integrand, quad, warnings)


def _oracle_jobs(def_, spec, quad, warnings, closed_form=False):
    """``(term, key, group, job)`` for every cell group (terms "elastic" and
    "bulk") and jump group ("jump") of ``def_``, in the order the terms sum
    them; ``key`` is the group's table entry (with the bytes of CL and Q
    for the elastic term), and ``job()`` integrates it by the per-prototype
    loop: (value, error).
    Nothing is skipped: flat cells, cells in a well and smooth curves are
    integrated like the others.  With ``closed_form``, the elastic job of a
    cell whose map is not curved (constant gradient) returns d2 at one
    point times the cell's area, with error 0.0."""
    A, B = well_matrices(spec)
    for part in def_.parts:
        Q, _, CL, _ = part.folded()
        for g in part.groups:
            def integrand(x, y, proto=g.proto, CL=CL, Q=Q):
                F = push_forward(CL, np.eye(2) + proto.map.grad(x, y), Q)
                return kernels.dist2_two_wells(F, A, B)[0]

            def job(proto=g.proto, f=integrand):
                if closed_form and not proto.map.curved:
                    return float(f(np.zeros(1), np.zeros(1))[0]) * proto.area(), 0.0
                return _oracle_cell(proto, f, quad, warnings)

            yield "elastic", (g.proto.entry(), CL.tobytes(), Q.tobytes()), g, job
    for part in def_.parts:
        for g in part.groups:
            yield ("bulk", g.proto.entry(), g,
                   lambda proto=g.proto: _oracle_tv_bulk_cell(proto, quad, warnings))
    for part in def_.parts:
        for jg in part.jumps:
            proto = jg.proto
            s1, s2 = jg.sides()

            def integrand(t, proto=proto, s1=s1, s2=s2):
                jx, jy = proto.points(t)
                diff = s2.grad(jx, jy) - s1.grad(jx, jy)
                return np.sqrt(np.einsum("nij,nij->n", diff, diff)) * proto.weight(t)

            yield ("jump", proto.entry(), jg,
                   lambda proto=proto, f=integrand: _oracle_line((0.0, proto.length_param()),
                                                                 f, quad, warnings))


def _oracle_terms(def_, spec, quad=None):
    """(elastic, tv_bulk, tv_jump, sorted warnings) by the per-prototype loop."""
    warnings: list[str] = []
    sums = {"elastic": 0.0, "bulk": 0.0, "jump": 0.0}
    cache: dict = {}
    for term, key, group, job in _oracle_jobs(def_, spec, quad or QuadratureSpec(), warnings,
                                              closed_form=True):
        if (term, key) not in cache:
            cache[term, key] = job()[0]
        sums[term] += group.count * cache[term, key]
    return sums["elastic"], sums["bulk"], sums["jump"], tuple(sorted(set(warnings)))


def _tv_bulk_cells(protos, quad):
    """Batched bulk-TV integrals of ``protos``, as ``energy._tv_bulk`` runs them:
    values, error estimates and depth-limit flags."""
    return _integrate_lines([p.entry() for p in protos],
                            [(0.0, *p.map.kinks(), p.width) for p in protos],
                            _tv_bulk_integrand, quad)


def test_identity_energies_closed_form():
    dom = Rect(0.0, 0.0, 1.0, 1.0)
    iden = identity_deformation(dom)
    a = 0.2
    e2 = elastic_energy(iden, WellSpec(CASE_K2, a))
    assert e2 == pytest.approx(a * a, rel=1e-6)
    e1 = elastic_energy(iden, WellSpec(CASE_K1, a))
    assert e1 == pytest.approx(4.0 + a * a - 2.0 * math.sqrt(4.0 + a * a), rel=1e-6)


def test_identity_no_surface_terms():
    iden = identity_deformation(Rect(0.0, 0.0, 2.0, 1.0))
    assert tv_bulk(iden) == 0.0
    assert tv_jump(iden) == 0.0
    b = total_energy(iden, WellSpec(CASE_K2, 0.1), 5.0)
    assert b.total == b.elastic


def test_laminate_energy_exact():
    a, h = 0.2, 0.125
    lam = laminate(Rect(0.0, 0.0, 1.0, 1.0), h, a, CASE_K2)
    spec = WellSpec(CASE_K2, a)
    assert elastic_energy(lam, spec) == pytest.approx(0.0, abs=1e-12)
    assert tv_bulk(lam) == 0.0
    # 2 interfaces per period, 8 periods, each of length 1 and jump 2a
    assert tv_jump(lam) == pytest.approx(16.0 * 2.0 * a, rel=1e-12)
    lam1 = laminate(Rect(0.0, 0.0, 1.0, 1.0), h, a, CASE_K1)
    assert elastic_energy(lam1, WellSpec(CASE_K1, a)) == pytest.approx(0.0, abs=1e-12)
    assert tv_jump(lam1) == pytest.approx(16.0 * 2.0 * a, rel=1e-12)


def test_breakdown_composition_and_validation():
    b = EnergyBreakdown.combine(1.0, 2.0, 3.0, 0.1, 0.0)
    assert b.total == pytest.approx(1.0 + 0.1 * 5.0)
    with pytest.raises(ValueError):
        total_energy(identity_deformation(Rect(0, 0, 1, 1)),
                     WellSpec(CASE_K2, 0.1), -1.0)


def test_energy_additivity_over_cells():
    a = 0.15
    spec = WellSpec(CASE_K2, a)
    c1 = k2_cell((0.0, 0.0), 1.0, 0.25, a)
    c2 = k2_cell((0.0, 0.25), 1.0, 0.25, a)
    union = PiecewiseDeformation(
        Rect(0.0, 0.0, 1.0, 0.5), c1.parts + c2.parts)
    e_union = elastic_energy(union, spec)
    assert e_union == pytest.approx(elastic_energy(c1, spec) + elastic_energy(c2, spec),
                                    rel=1e-10)


def test_quadrature_convergence_under_order_doubling():
    a = 0.12
    spec = WellSpec(CASE_K2, a)
    d = k2_cell((0.0, 0.0), 1.0, 0.2, a)
    q1 = QuadratureSpec(base_order=8)
    q2 = QuadratureSpec(base_order=16)
    for fn in (lambda q: elastic_energy(d, spec, q),
               lambda q: tv_bulk(d, q), lambda q: tv_jump(d, q)):
        v1, v2 = fn(q1), fn(q2)
        assert abs(v1 - v2) <= 10.0 * q1.rel_tol * max(abs(v2), 1e-6)


def test_elastic_energy_rotation_invariance():
    a = 0.2
    spec = WellSpec(CASE_K2, a)
    d = k2_boundary_cell((0.0, 0.0), 1.0, 0.25, a)
    e0 = elastic_energy(d, spec)
    for phi in (0.3, 1.2, -2.0):
        e = elastic_energy(rotate_values(d, rotation(phi)), spec)
        assert e == pytest.approx(e0, rel=1e-9)


def test_mirror_preserves_energies():
    a = 0.25
    spec = WellSpec(CASE_K1, a)
    d = k1_cell((0.0, 0.0), 0.75, 0.25, a)
    m = mirror_x(d, 0.75)
    assert elastic_energy(m, spec) == pytest.approx(elastic_energy(d, spec), rel=1e-10)
    assert tv_jump(m) == pytest.approx(tv_jump(d), rel=1e-10)
    assert tv_bulk(m) == pytest.approx(tv_bulk(d), rel=1e-10)


def test_cell_energy_scaling_laws():
    hs = [2.0 ** -k for k in range(6, 2, -1)]
    a = 0.1
    slopes = {}
    for name, builder, case in (("k2", k2_cell, CASE_K2), ("k1", k1_cell, CASE_K1)):
        es = [elastic_energy(builder((0.0, 0.0), 1.0, h, a), WellSpec(case, a))
              for h in hs]
        slopes[name] = np.polyfit(np.log(hs), np.log(es), 1)[0]
    assert slopes["k2"] == pytest.approx(5.0, abs=0.15)
    assert slopes["k1"] == pytest.approx(3.0, abs=0.15)
    es = [elastic_energy(k2_boundary_cell((0.0, 0.0), 1.0, h, a), WellSpec(CASE_K2, a))
          for h in hs]
    assert np.polyfit(np.log(hs), np.log(es), 1)[0] == pytest.approx(1.0, abs=0.15)


def test_cell_energy_upper_bounds_single_constant():
    # measured energies track the cell laws with one constant per family
    a, eps = 0.1, 1e-6
    worst = {"k2": 0.0, "k1": 0.0, "bd": 0.0}
    for h in (1.0 / 32, 1.0 / 16, 1.0 / 8):
        for ell in (0.25, 0.5, 1.0):
            if h > ell:
                continue
            b = total_energy(k2_cell((0.0, 0.0), ell, h, a), WellSpec(CASE_K2, a), eps)
            worst["k2"] = max(worst["k2"], b.total / (a ** 2 * h ** 5 / ell ** 3 + a * eps * ell))
            b = total_energy(k1_cell((0.0, 0.0), ell, h, a), WellSpec(CASE_K1, a), eps)
            worst["k1"] = max(worst["k1"], b.total / (a ** 2 * h ** 3 / ell + a * eps * ell))
            b = total_energy(k2_boundary_cell((0.0, 0.0), ell, h, a),
                             WellSpec(CASE_K2, a), eps)
            worst["bd"] = max(worst["bd"], b.total / (a ** 2 * h * ell + a * eps * ell))
    # regression pins (measured ~9 / ~13 / ~11 with the quintic ramp)
    assert worst["k2"] <= 20.0
    assert worst["k1"] <= 25.0
    assert worst["bd"] <= 20.0


def test_tv_bulk_scaling_degree_one():
    a = 0.15
    v1 = tv_bulk(k2_cell((0.0, 0.0), 1.0, 0.25, a))
    v2 = tv_bulk(k2_cell((0.0, 0.0), 0.5, 0.125, a))
    assert v2 == pytest.approx(0.5 * v1, rel=1e-8)


def test_tv_bulk_product_bound():
    a, ell, h = 0.2, 1.0, 0.125
    v = tv_bulk(k2_cell((0.0, 0.0), ell, h, a))
    assert v <= 5.0 * a * h * h / ell


def test_assembly_jump_tv_tracks_stripe_sum():
    spec = WellSpec(CASE_K2, 0.1)
    s = branching_schedule(CASE_K2, 0.1, 1e-5, 1.0, 1.0)
    d = assemble_branched(spec, s, Rect(0.0, 0.0, 1.0, 1.0))
    v = tv_jump(d)
    assert v <= 40.0 * 0.1 * 1.0 * s.N


def test_rotated_field_energy_inequality():
    # E[v] <= 2 E[u, swapped domain] + 2 alpha^4 L H for the quarter-rotated field
    spec = WellSpec(CASE_K1, 0.2)
    eps = 1e-5
    L, H = 0.25, 1.0
    dv = vertical_branched_k1(spec, eps, Rect(0.0, 0.0, L, H))
    du = horizontal_branched(spec, eps, Rect(0.0, 0.0, H, L))
    bv = total_energy(dv, spec, eps)
    bu = total_energy(du, spec, eps)
    assert bv.total <= 2.0 * bu.total + 2.0 * spec.alpha ** 4 * L * H
    assert bv.tv_bulk == pytest.approx(bu.tv_bulk, rel=1e-12)
    assert bv.tv_jump == pytest.approx(bu.tv_jump, rel=1e-12)


def test_error_estimate_and_warnings_present():
    b = total_energy(k2_cell((0.0, 0.0), 1.0, 0.25, 0.2), WellSpec(CASE_K2, 0.2), 1e-4)
    assert b.error_estimate >= 0.0
    assert b.warnings == ()


@pytest.mark.parametrize("eps", [1e-4, 1e-7])
def test_quadrature_agrees_with_tighter_tolerance(eps):
    default = QuadratureSpec()
    tight = QuadratureSpec(rel_tol=default.rel_tol / 100.0)
    dom = Rect(0.0, 0.0, 1.0, 1.0)
    for spec, build in ((WellSpec(CASE_K2, 0.1), horizontal_branched),
                        (WellSpec(CASE_K1, 0.1), horizontal_branched),
                        (WellSpec(CASE_K1, 0.1), vertical_branched_k1)):
        d = build(spec, eps, dom)
        b = total_energy(d, spec, eps, default)
        ref = total_energy(d, spec, eps, tight)
        diff = abs(b.total - ref.total)
        assert diff <= 1e-9 * ref.total
        assert diff <= b.error_estimate


def test_error_estimate_weights_surface_terms_by_epsilon():
    spec = WellSpec(CASE_K2, 0.1)
    eps = 1e-7
    d = horizontal_branched(spec, eps, Rect(0.0, 0.0, 1.0, 1.0))
    b = total_energy(d, spec, eps)
    tight = total_energy(d, spec, eps, QuadratureSpec(rel_tol=QuadratureSpec().rel_tol / 100.0))
    assert abs(b.total - tight.total) <= b.error_estimate
    # Same construction, smaller epsilon: only the surface terms' share falls.
    smaller = total_energy(d, spec, eps / 100.0)
    assert smaller.error_estimate < b.error_estimate
    elastic_only = total_energy(d, spec, 0.0).error_estimate
    assert elastic_only < smaller.error_estimate
    assert b.error_estimate - elastic_only == pytest.approx(
        100.0 * (smaller.error_estimate - elastic_only), rel=1e-9)


def _oracle_cases():
    dom = Rect(0.0, 0.0, 1.0, 1.0)
    k1, k2 = WellSpec(CASE_K1, 0.1), WellSpec(CASE_K2, 0.1)
    a, ell, h = 0.2, 0.75, 0.25
    cases = []
    for eps in (1e-3, 1e-7):
        cases.append((f"k2-horizontal-{eps}", horizontal_branched(k2, eps, dom), k2, eps))
        cases.append((f"k1-horizontal-{eps}", horizontal_branched(k1, eps, dom), k1, eps))
    for kind in ("quintic", "linear"):
        cases.append((f"k1-vertical-{kind}",
                      vertical_branched_k1(k1, 1e-5, dom, gamma_kind=kind), k1, 1e-5))
        cases.append((f"k1-cell-{kind}", k1_cell((0.0, 0.0), ell, h, a, gamma_kind=kind),
                      WellSpec(CASE_K1, a), 1e-4))
        cases.append((f"k1-boundary-cell-{kind}",
                      k1_boundary_cell((0.0, 0.0), ell, h, a, gamma_kind=kind),
                      WellSpec(CASE_K1, a), 1e-4))
    cases.append(("k2-cell", k2_cell((0.0, 0.0), ell, h, a), WellSpec(CASE_K2, a), 1e-4))
    cases.append(("k2-boundary-cell", k2_boundary_cell((0.0, 0.0), ell, h, a),
                  WellSpec(CASE_K2, a), 1e-4))
    cases.append(("laminate", laminate(dom, 0.125, a, CASE_K2), WellSpec(CASE_K2, a), 1e-4))
    cases.append(("rotated-values", rotate_values(horizontal_branched(k2, 1e-4, dom),
                                                  rotation(0.7)), k2, 1e-4))
    # An offset, non-square domain: every float column of the tables
    # (anchors, offsets, mirror axis) differs from the unit square's.
    offset = Rect(0.3, -0.2, 2.0, 0.5)
    cases.append(("k2-horizontal-offset", horizontal_branched(k2, 1e-4, offset), k2, 1e-4))
    cases.append(("k1-vertical-offset", vertical_branched_k1(k1, 1e-4, offset), k1, 1e-4))
    cases.append(("k1-horizontal-theta-N", horizontal_branched(k1, 1e-4, dom, theta=0.3, N=3),
                  k1, 1e-4))
    return [pytest.param(d, spec, eps, id=name) for name, d, spec, eps in cases]


@pytest.mark.parametrize("d,spec,eps", _oracle_cases())
def test_batched_quadrature_matches_per_prototype_oracle(d, spec, eps):
    b = total_energy(d, spec, eps)
    elastic, bulk, jump, warnings = _oracle_terms(d, spec)
    assert (b.elastic, b.tv_bulk, b.tv_jump, b.warnings) == (elastic, bulk, jump, warnings)


# A coarse rule at depth 1: both branched k1 candidates hit the limit in
# cells and on lines at eps = 1e-3 on the unit square, the identity does not.
_COARSE = QuadratureSpec(max_refinement_depth=1, rel_tol=1e-12, base_order=2, line_points=2)


def _candidate_cases():
    k1, k2 = WellSpec(CASE_K1, 0.1), WellSpec(CASE_K2, 0.2)
    cases = [(f"{spec.case}-aspect-{aspect}", spec, 1e-4,
              Rect(0.0, 0.0, math.sqrt(aspect), 1.0 / math.sqrt(aspect)), {}, None)
             for spec in (k1, k2) for aspect in (0.25, 1.0, 4.0)]
    cases += [("k1-offset", k1, 1e-5, Rect(0.3, -0.2, 2.0, 0.5), {}, None),
              ("k2-offset", k2, 1e-5, Rect(0.3, -0.2, 2.0, 0.5), {}, None),
              ("k1-theta", k1, 1e-4, Rect(0.0, 0.0, 1.0, 1.0), {"theta": 0.3}, None),
              ("k1-coarse", k1, 1e-3, Rect(0.0, 0.0, 1.0, 1.0), {}, _COARSE)]
    return [pytest.param(*case[1:], id=case[0]) for case in cases]


@pytest.mark.parametrize("spec,eps,dom,kw,quad", _candidate_cases())
def test_total_energies_match_one_deformation_at_a_time(spec, eps, dom, kw, quad):
    # The candidates of best_construction; at aspect 1 the horizontal and
    # the vertical k1 constructions share prototypes.
    cands = [identity_deformation(dom), horizontal_branched(spec, eps, dom, **kw)]
    if spec.case == CASE_K1:
        cands.append(vertical_branched_k1(spec, eps, dom, **kw))
    merged = total_energies(cands, spec, eps, quad)
    assert [repr(b) for b in merged] == [repr(total_energy(c, spec, eps, quad)) for c in cands]
    if quad is _COARSE:
        assert [b.warnings for b in merged] == [()] + 2 * [(
            "cell quadrature hit the refinement limit",
            "line quadrature hit the refinement limit")]


# repr of (elastic, tv_bulk, tv_jump, error_estimate) at four points of
# perfbench's ratio_grid sample, as computed before the prototypes became
# parameter tables.  The oracle above shares the displacement families with
# the code under test, so it cannot see a change to them; these pins can.
# The k2 tv_bulk values and the error estimates moved when the k2 cell's
# middle piece was split at its kinks and constant-gradient cells got their
# closed form: the middle piece now matches scipy.integrate.quad to 1e-15
# (1e-10 before), see test_quadrature_matches_scipy_oracle.  The elastic
# values and the error estimates moved again when the elastic term became
# column integrals in x by the line rule (16 and 32 points, where the 2D
# panels had 8 and 16 per axis); the TV terms kept every bit.  Before:
#   1.1931092462061027e-06, 1.7134317365208936e-16
#   3.4692459597288762e-06, 1.6009459347624322e-16
#   0.00018972093927587726, 1.6477866282143008e-16
#   0.0006673936691419691, 7.258159675565175e-13
# They moved again, in the last bits, when the well kernel took r =
# sqrt(p*p + q*q) instead of hypot(p, q); the TV terms kept every bit.
# Before (elastic, error_estimate):
#   1.1931092461824671e-06, 1.0466779368162846e-16
#   3.469245959714852e-06, 6.949412905896427e-17
#   0.00018972093927583416, 7.601109225683712e-17
#   0.0006673936691419405, 6.475241118410267e-13
_PINNED = [
    ((CASE_K2, 1e-7, 2.0, 0.1, horizontal_branched),
     "(1.1931092461835668e-06, 0.5208311894605422, 38.58209011197011, 1.0619935275866945e-16)"),
    ((CASE_K1, 1e-7, 0.5, 0.2, horizontal_branched),
     "(3.469245959714853e-06, 0.6863492708952108, 517.2613211848111, 6.949485180802449e-17)"),
    ((CASE_K1, 1e-4, 4.0, 0.1, vertical_branched_k1),
     "(0.0001897209392758347, 0.3281249999999997, 30.03184523809524, 9.090764894196168e-17)"),
    ((CASE_K2, 1e-3, 4.0, 0.2, horizontal_branched),
     "(0.0006673936691419539, 0.43752643962447074, 13.399855128437608, 6.475383305595958e-13)"),
]


@pytest.mark.parametrize("point,pinned", _PINNED,
                         ids=[f"{c}-{e}-{a}-{al}-{b.__name__}" for (c, e, a, al, b), _ in _PINNED])
def test_energies_match_pinned_values(point, pinned):
    case, eps, aspect, alpha, build = point
    spec = WellSpec(case, alpha)
    dom = Rect(0.0, 0.0, math.sqrt(aspect), 1.0 / math.sqrt(aspect))
    b = total_energy(build(spec, eps, dom), spec, eps)
    assert repr((b.elastic, b.tv_bulk, b.tv_jump, b.error_estimate)) == pinned
    assert b.warnings == ()


def test_kernel_calls_grow_with_shapes_not_prototypes(monkeypatch):
    spec = WellSpec(CASE_K1, 0.1)
    dom = Rect(0.0, 0.0, 1.0, 1.0)
    calls = []
    dist2 = kernels.dist2_two_wells

    def counting(F, A, B):
        calls.append(len(F))
        return dist2(F, A, B)

    monkeypatch.setattr(kernels, "dist2_two_wells", counting)
    counts = []
    for eps in (1e-3, 1e-7):
        d = horizontal_branched(spec, eps, dom)
        calls.clear()
        elastic_energy(d, spec)
        protos = {(g.proto.entry(), p.transform.name) for p in d.parts for g in p.groups}
        counts.append((len(protos), len(calls)))
    (few, calls_few), (many, calls_many) = counts
    assert many >= 2.5 * few
    assert calls_many <= 1.5 * calls_few


def test_mirror_fold_integrates_each_curved_cell_once(monkeypatch):
    # The right half of a k2 construction is the left half's cells under the
    # mirror, which fixes both wells: folded, each curved cell is integrated
    # once, and the kernel sees half the points it sees unfolded.
    spec = WellSpec(CASE_K2, 0.1)
    d = horizontal_branched(spec, 1e-6, Rect(0.0, 0.0, 1.0, 1.0))
    calls, cells = [], []
    dist2, integrate_lines = kernels.dist2_two_wells, energy._integrate_lines

    def counting(F, A, B):
        calls.append(len(F))
        return dist2(F, A, B)

    def recording(entries, edges, integrand, quad, **kw):
        cells.extend((shape[1], row) for shape, row in entries)
        return integrate_lines(entries, edges, integrand, quad, **kw)

    monkeypatch.setattr(kernels, "dist2_two_wells", counting)
    monkeypatch.setattr(energy, "_integrate_lines", recording)
    counts = []
    for fold in (True, False):
        if not fold:
            monkeypatch.setattr(energy, "_mirror_fold", lambda conj: conj)
        calls.clear()
        cells.clear()
        value = elastic_energy(d, spec)
        counts.append((len(calls), sum(calls), value))
        if fold:
            curved = {g.proto.entry() for part in d.parts for g in part.groups
                      if g.proto.map.curved}
            assert len(cells) == len(set(cells)) == len(curved)
    (calls_folded, points_folded, folded), (calls_unfolded, points_unfolded, unfolded) = counts
    assert folded == unfolded
    assert calls_folded < calls_unfolded
    assert 2 * points_folded <= points_unfolded


def test_one_prototype_at_the_depth_limit_leaves_the_batch_alone():
    # At depth 4 only the lower transition piece of a thin k2 cell (h / ell
    # = 1/128) is still refining; its neighbours in the batch converge in
    # fewer waves, the middle piece split at its kinks in one.
    protos = [g.proto for d in (k2_cell((0.0, 0.0), 1.0, 0.25, 0.2),
                                k2_boundary_cell((0.0, 0.0), 0.5, 0.25, 0.2),
                                k1_cell((0.0, 0.0), 0.5, 0.25, 0.2))
              for g in d.parts[0].groups]
    protos.insert(2, k2_cell((0.0, 0.0), 1.0, 1.0 / 128.0, 0.2).parts[0].groups[1].proto)
    quad = QuadratureSpec(max_refinement_depth=4)
    batched, _, hit = _tv_bulk_cells(protos, quad)
    warned = []
    for i, proto in enumerate(protos):
        one = []
        assert batched[i] == _oracle_tv_bulk_cell(proto, quad, one)[0], proto.map.key()
        warned += [i] * len(one)
    assert warned == [2]
    assert np.flatnonzero(hit).tolist() == [2]


def _hess_norm_integrand(proto):
    """|D^2 u| from the full second-gradient tensor: the 2D oracle for the
    closed-form column integral behind the bulk TV."""
    def integrand(x, y):
        h = proto.map.hess(x, y).reshape(-1, 8)
        return np.sqrt(np.einsum("nk,nk->n", h, h))
    return integrand


def _all_piece_protos():
    """Every piece of every displacement family, both ramps where allowed.

    The width is not 1, so a wrong power of ell in a coefficient shows.
    """
    a, ell, h = 0.2, 0.75, 0.25
    cells = [k2_cell((0.0, 0.0), ell, h, a), k2_boundary_cell((0.0, 0.0), ell, h, a)]
    for kind in ("quintic", "linear"):
        cells.append(k1_cell((0.0, 0.0), ell, h, a, gamma_kind=kind))
        cells.append(k1_boundary_cell((0.0, 0.0), ell, h, a, gamma_kind=kind))
    return [g.proto for d in cells for g in d.parts[0].groups]


def test_declared_kinks_leave_one_wave_of_bulk_tv(monkeypatch):
    # Split at their kinks, the bulk TV of every curved piece converges on
    # its root panels (wave 0), except the k2 cell's transition pieces.
    # Without the split, the scalar-profile pieces' first wave fails.
    waves = []
    integrate = energy._integrate

    def counting(wave_values, *args):
        def counted(*a):
            waves[-1] += 1
            return wave_values(*a)
        waves.append(0)
        return integrate(counted, *args)

    monkeypatch.setattr(energy, "_integrate", counting)
    curved = [p for p in _all_piece_protos() if p.map.curved]
    assert {p.map.tag() for p in curved} == {"k2cell", "k2bd", "k1cell", "k1bd"}
    for proto in curved:
        waves.clear()
        _tv_bulk_cells([proto], QuadratureSpec())
        refines = proto.map.key()[:2] in {("k2cell", 2), ("k2cell", 4)}
        assert (waves[0] > 1) == refines, (proto.map.key(), waves)
        if isinstance(proto.map, ScalarProfilePiece):
            waves.clear()
            with monkeypatch.context() as mp:
                mp.setattr(ScalarProfilePiece, "kinks", lambda self: ())
                _tv_bulk_cells([proto], QuadratureSpec())
            assert waves[0] > 1, proto.map.key()


def test_cell_bounds_share_the_ramp_bit_for_bit():
    # A cell's curves take its map's ramp value where they follow the same
    # ramp kind and width, and evaluate their own otherwise.
    x = np.linspace(0.0, 0.75, 97)
    shared = 0
    for proto in _all_piece_protos():
        ramp = proto.map.ramp(x)
        lo, hi = proto.bounds(x, ramp)
        assert (lo.tobytes(), hi.tobytes()) == (proto.lower.value(x).tobytes(),
                                                proto.upper.value(x).tobytes())
        if ramp is None:
            continue
        shared += 1
        # An upper curve of another width than the map's evaluates its own
        # ramp, which differs here from the map's.
        wide = dataclasses.replace(proto, upper=dataclasses.replace(proto.upper, width=1.5))
        assert wide.upper.value(x).tobytes() != proto.upper.value(x).tobytes()
        assert wide.bounds(x, ramp)[1].tobytes() == wide.upper.value(x).tobytes()
    assert shared > 0


def test_hess_profile_matches_full_hessian():
    rng = np.random.default_rng(4)
    protos = _all_piece_protos()
    assert {p.map.tag() for p in protos} == {"k2cell", "k2bd", "k1cell", "k1bd"}
    assert sum(np.any(p.map.hess(np.array([0.3]), np.array([0.1]))) for p in protos) >= 6
    oracle_quad = QuadratureSpec(rel_tol=1e-12, max_refinement_depth=13)
    for proto in protos:
        x = rng.uniform(0.0, proto.width, 500)
        s = rng.uniform(0.0, 1.0, 500)
        lo, hi = proto.lower.value(x), proto.upper.value(x)
        y = lo + s * (hi - lo)
        hess = proto.map.hess(x, y)
        A, B, R2 = proto.map.hess_profile(x)
        full = np.sum(hess.reshape(-1, 8) ** 2, axis=1)
        np.testing.assert_allclose((A + B * y) ** 2 + R2, full, rtol=1e-12, atol=0.0)

        # The norm hides misplaced entries; central differences of the
        # gradient formula pin every entry of the tensor.
        step = 1e-6 * proto.width
        fd = np.stack([proto.map.grad(x + step, y) - proto.map.grad(x - step, y),
                       proto.map.grad(x, y + step) - proto.map.grad(x, y - step)],
                      axis=-1) / (2.0 * step)
        np.testing.assert_allclose(fd, hess, rtol=0.0, atol=1e-6 * np.abs(hess).max() + 1e-12)

        column = _tv_bulk_cells([proto], QuadratureSpec())[0][0]
        oracle = _oracle_area(proto, _hess_norm_integrand(proto), oracle_quad, [])[0]
        assert abs(column - oracle) <= 1e-9 * oracle, (proto.map.key(), column, oracle)


def _recorded_integrals(defs, spec, eps):
    """One dict per term of ``total_energies(defs, spec, eps)`` (elastic,
    bulk TV, jump TV): {entry: (value, error, item)} of every table entry
    the term integrates, by quadrature or closed form."""
    terms = []
    unique = energy._unique_integrals

    def recording(keyed, integrate, what):
        seen = {}
        terms.append(seen)

        def wrapped(entries, items):
            values, errors, hit = integrate(entries, items)
            seen.update(zip(entries, zip(values, errors.tolist(), items)))
            return values, errors, hit
        return unique(keyed, wrapped, what)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(energy, "_unique_integrals", recording)
        total_energies(defs, spec, eps)
    return terms


@pytest.mark.parametrize("eps", [1e-3, 1e-7])
def test_quadrature_matches_scipy_oracle(eps):
    # An independent adaptive rule (QUADPACK) checks the bulk TV and the
    # elastic integral of one curved prototype of every family and piece
    # (the k2 cell's middle piece split at its kinks like ours, its
    # transition pieces integrated across their columns by the fixed Gauss
    # rule), and every constant-gradient elastic entry's closed form d2 *
    # area, against scipy's 1D integral of the closed-form column TV and
    # its 2D integral of d2.
    integrate = pytest.importorskip("scipy.integrate")
    dom = Rect(0.0, 0.0, 1.0, 1.0)
    k1, k2 = WellSpec(CASE_K1, 0.1), WellSpec(CASE_K2, 0.1)
    # A value rotation moves the k2 laminate gradients off the wells.
    constant = 0
    for spec, defs in ((k2, [rotate_values(horizontal_branched(k2, eps, dom), rotation(0.7))]),
                       (k1, [horizontal_branched(k1, eps, dom),
                             vertical_branched_k1(k1, eps, dom)])):
        elastic, bulk, _ = _recorded_integrals(defs, spec, eps)
        curved = {}
        for value, error, proto in bulk.values():
            curved.setdefault(proto.map.key()[:2], (proto, value, error))
        tags = {"k2": {"k2cell", "k2bd"}, "k1": {"k1cell", "k1bd"}}[spec.case]
        assert {tag for tag, _ in curved} == tags
        for (tag, piece), (proto, value, error) in curved.items():
            def column(x, proto=proto):
                x = np.array([x])
                A, B, R2 = proto.map.hess_profile(x)
                return float(_column_tv(A, B, R2, proto.lower.value(x),
                                        proto.upper.value(x))[0])

            ref, ref_err = integrate.quad(column, 0.0, proto.width,
                                          points=proto.map.kinks() or None,
                                          epsabs=0.0, epsrel=2e-14, limit=200)
            assert (tag, piece) != ("k2cell", 3) or proto.map.kinks()
            # The estimate bounds the error, up to the reference's own.
            assert abs(value - ref) <= error + ref_err, (tag, piece, value, ref, error)
            assert abs(value - ref) <= 1e-9 * ref
            if (tag, piece) == ("k2cell", 3):
                assert abs(value - ref) <= 1e-13 * ref

        A, B = well_matrices(spec)

        def d2_integral(proto, conj):
            """scipy's integral of d2 over the cell under ``conj``'s matrices."""
            CL, Q = (np.reshape(m, (2, 2)) for m in conj)

            def d2(y, x):
                F = push_forward(CL, np.eye(2) + proto.map.grad(np.array([x]), np.array([y])), Q)
                return float(kernels.dist2_two_wells(F, A, B)[0][0])

            return integrate.dblquad(d2, 0.0, proto.width, proto.lower.value,
                                     proto.upper.value, epsabs=0.0, epsrel=1e-13)

        columns = {}
        for ((_, _, conj), _), (value, error, proto) in elastic.items():
            if proto.map.curved:
                columns.setdefault(proto.map.key()[:2], (proto, conj, value, error))
                continue
            ref, ref_err = d2_integral(proto, conj)
            assert error == 0.0 and value > 0.0
            assert abs(value - ref) <= 1e-13 * ref + ref_err, (value, ref)
            constant += 1
        assert set(columns) == set(curved)
        assert any(proto.map.grad_reads_y for proto, *_ in columns.values()) == (spec is k2)
        for (tag, piece), (proto, conj, value, error) in columns.items():
            # d2 = |F|^2 + |G|^2 - 2 r is rounded to about an ulp of |F|^2 +
            # |G|^2 at every node, which neither error estimate counts, and
            # QUADPACK warns of that roundoff: on the k1 cell a 40-digit
            # evaluation of d2 at the same F moves the integral by 6e-13
            # relative, a sixth of this allowance.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                ref, ref_err = d2_integral(proto, conj)
            rounding = np.finfo(float).eps * (np.sum(A * A) + np.sum(B * B)) * abs(proto.area())
            assert abs(value - ref) <= error + ref_err + rounding, (tag, piece, value, ref, error)
            assert abs(value - ref) <= 1e-9 * ref, (tag, piece, value, ref)
    assert constant > 0


def _integrated_entries(d, spec, eps):
    """The table entries each term of ``total_energy(d, spec, eps)`` integrates,
    keyed as :func:`_integrated_key` keys the jobs of :func:`_oracle_jobs`."""
    elastic, bulk, jump = _recorded_integrals([d], spec, eps)
    # The elastic term keys ((_ConjugatedCell, cell shape, folded (CL, Q)),
    # cell row).
    elastic = {((cell, row), conj) for (_, cell, conj), row in elastic}
    return {"elastic": elastic, "bulk": set(bulk), "jump": set(jump)}


def _integrated_key(term, key):
    """The key of an :func:`_oracle_jobs` job among :func:`_integrated_entries`:
    an elastic job's cell entry and its conjugation's matrices, folded by
    the mirror as the elastic term folds them."""
    if term != "elastic":
        return key
    cell, cl, q = key
    return cell, _mirror_fold(tuple(tuple(np.frombuffer(m).tolist()) for m in (cl, q)))


def test_skipped_entries_are_exact_zeros():
    # Every entry the quadrature skips (flat cells in the bulk TV, flat
    # cells in a well, smooth curves) integrates to exactly 0.0 with zero
    # error under the per-prototype oracle, and the gradient is exactly
    # continuous across every smooth curve.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    quad = QuadratureSpec()

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(case=st.sampled_from([CASE_K1, CASE_K2]),
                      vertical=st.booleans(), linear=st.booleans(), rotate=st.booleans(),
                      alpha=st.floats(0.05, 0.45),
                      log_eps=st.floats(-6.0, -2.0),
                      log_aspect=st.floats(math.log(0.25), math.log(4.0)),
                      theta=st.floats(0.26, 0.4, exclude_min=True, exclude_max=True))
    def check(case, vertical, linear, rotate, alpha, log_eps, log_aspect, theta):
        spec, eps, aspect = WellSpec(case, alpha), 10.0 ** log_eps, math.exp(log_aspect)
        dom = Rect(0.0, 0.0, math.sqrt(aspect), 1.0 / math.sqrt(aspect))
        k1 = case == CASE_K1
        build = vertical_branched_k1 if vertical and k1 else horizontal_branched
        kind = "linear" if linear and k1 else "quintic"
        d = build(spec, eps, dom, theta=theta, gamma_kind=kind)
        if rotate:
            d = rotate_values(d, rotation(1.0 + alpha))
        integrated = _integrated_entries(d, spec, eps)
        skipped, seams = {}, 0.0
        for term, key, group, job in _oracle_jobs(d, spec, quad, []):
            key = _integrated_key(term, key)
            if key not in integrated[term] and (term, key) not in skipped:
                skipped[term, key] = job()
            if term == "jump" and isinstance(group.proto, VerticalJump):
                assert group.smooth == (kind == "quintic")
                if kind == "linear":
                    seams += group.count * job()[0]
        terms = {term for term, _ in skipped}
        assert {"bulk", "jump"} <= terms
        # The swap puts the k1 laminate off the wells by O(alpha^2), and a
        # value rotation rounds the flat gradients off them.
        assert rotate or vertical and k1 or "elastic" in terms
        assert set(skipped.values()) == {(0.0, 0.0)}
        for part, jg in d.iter_jump_groups():
            if jg.smooth:
                for t in np.linspace(0.0, jg.proto.length_param(), 5)[1:-1]:
                    assert not np.any(gradient_jump(d, part, jg, t)), jg.proto.tag
        # Negative control: the linear ramp's slope is not flat at the cell
        # edges, so the stripe and centre lines carry a gradient jump.
        assert (seams > 0.0) == (kind == "linear")

    check()


def test_columns_that_read_y_stay_on_one_well():
    # The elastic term integrates a column whose gradient reads y (the k2
    # cell's transition pieces) by a fixed base_order-point Gauss rule.
    # That rule is accurate because d2 is analytic along the column when
    # all its nodes have the same nearest well: checked here at the root
    # panel's nodes of both line rules and on a uniform grid of x.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    quad = QuadratureSpec()
    s = _gauss(quad.base_order)[0]
    t = np.concatenate([np.linspace(0.0, 1.0, 129), _gauss(quad.line_points)[0],
                        _gauss(2 * quad.line_points)[0]])

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(case=st.sampled_from([CASE_K1, CASE_K2]),
                      alpha=st.floats(0.05, 0.45),
                      log_eps=st.floats(-7.0, -2.0),
                      log_L=st.floats(math.log(0.25), math.log(4.0)),
                      log_H=st.floats(math.log(0.25), math.log(4.0)),
                      theta=st.floats(0.26, 0.45))
    def check(case, alpha, log_eps, log_L, log_H, theta):
        spec = WellSpec(case, alpha)
        d = horizontal_branched(spec, 10.0 ** log_eps,
                                Rect(0.0, 0.0, math.exp(log_L), math.exp(log_H)), theta=theta)
        A, B = well_matrices(spec)
        columns = 0
        for part in d.parts:
            Q, _, CL, _ = part.folded()
            for g in part.groups:
                proto = g.proto
                if not proto.map.grad_reads_y:
                    continue
                x = proto.width * t
                y = (1.0 - s)[:, None] * proto.lower.value(x) + s[:, None] * proto.upper.value(x)
                F = push_forward(CL, np.eye(2) + proto.map.grad(np.broadcast_to(x, y.shape), y), Q)
                which = kernels.dist2_two_wells(F.reshape(-1, 2, 2), A, B)[1].reshape(y.shape)
                assert np.all(which == which[0]), (proto.map.key(), part.transform.name)
                columns += len(x)
        assert (columns > 0) == (case == CASE_K2)

    check()


def test_integrands_never_see_what_is_skipped(monkeypatch):
    spec = WellSpec(CASE_K1, 0.1)
    d = horizontal_branched(spec, 1e-4, Rect(0.0, 0.0, 1.0, 1.0))
    groups = [jg for _, jg in d.iter_jump_groups()]
    smooth = {jg.proto.entry() for jg in groups if jg.smooth}
    smooth -= {jg.proto.entry() for jg in groups if not jg.smooth}
    assert smooth
    bends, rows = [], set()
    bulk, jump = energy._tv_bulk_integrand, energy._tv_jump_integrand

    def counting_bulk(proto, x):
        bends.append(proto.map.bends)
        return bulk(proto, x)

    def counting_jump(proto, t):
        shape, row = proto.entry()
        rows.update((shape, r) for r in map(tuple, np.hstack(row).tolist()))
        return jump(proto, t)

    monkeypatch.setattr(energy, "_tv_bulk_integrand", counting_bulk)
    monkeypatch.setattr(energy, "_tv_jump_integrand", counting_jump)
    b = total_energy(d, spec, 1e-4)
    assert b.tv_bulk > 0.0 and b.tv_jump > 0.0
    assert bends and all(bends)
    assert rows and not rows & smooth


def test_linear_ramp_pieces_are_not_curved(monkeypatch):
    # With the linear ramp the bent pieces of the shear case have g'' = 0,
    # so D^2 u = 0 and their gradient is constant: the bulk TV integrates
    # none of their lines, and the elastic term gives them their closed
    # form d2 * area instead of the column integral.
    lines, cells = {}, {}
    integrate_lines = energy._integrate_lines

    def counting_lines(entries, edges, integrand, quad, **kw):
        if integrand is energy._tv_bulk_integrand:
            lines[kind] = lines.get(kind, 0) + len(entries)
        cells[kind] = cells.get(kind, 0) + sum(
            shape[0].from_row(shape, iter(row)).cell.map.bends
            for shape, row in entries if shape[0] is energy._ConjugatedCell)
        return integrate_lines(entries, edges, integrand, quad, **kw)

    monkeypatch.setattr(energy, "_integrate_lines", counting_lines)
    spec = WellSpec(CASE_K1, 0.1)
    results = {}
    for kind in ("linear", "quintic"):
        results[kind] = best_construction(spec, 1e-4, 1.0, 1.0, gamma_kind=kind)
    assert lines.get("linear", 0) == 0 and cells.get("linear", 0) == 0
    assert lines["quintic"] > 0 and cells["quintic"] > 0  # the quintic ramp curves
    d, breakdown, label = results["linear"]
    assert label == "branched-horizontal"
    assert repr(breakdown) == (
        "EnergyBreakdown(elastic=0.0001174596994664732, tv_bulk=0.0, "
        "tv_jump=17.5092757936508, epsilon=0.0001, total=0.0018683872788315533, "
        "error_estimate=3.306138999722985e-19, warnings=())")
    # The value the 2D loop gave those pieces before the closed form,
    # every node the same F.
    assert breakdown.elastic == pytest.approx(0.00011745969946647316, rel=1e-14, abs=0.0)
    bent = [g.proto.map for part in d.parts for g in part.groups if g.proto.map.bends]
    assert bent and not any(m.curved for m in bent)
