import math

import numpy as np
import pytest

from twowell import wells
from twowell.wells import (
    CASE_K1,
    CASE_K2,
    RankOneCountError,
    WellSpec,
    Z_SWAP,
    angle_scan_distance,
    dist_to_rotated_well,
    dist_to_wells,
    interface_degeneracy_gap,
    rank_one_connections,
    rotation,
    rotation_ra,
    well_matrices,
)


def test_well_matrices_match_case_definitions():
    A, B = well_matrices(WellSpec(CASE_K1, 0.5))
    np.testing.assert_array_equal(A, [[1.0, -0.5], [0.0, 1.0]])
    np.testing.assert_array_equal(B, [[1.0, 0.5], [0.0, 1.0]])
    A, B = well_matrices(WellSpec(CASE_K2, 0.2))
    np.testing.assert_allclose(A, np.diag([1.0, 0.8]))
    np.testing.assert_allclose(B, np.diag([1.0, 1.2]))


def test_well_matrices_memoized_and_read_only():
    spec = WellSpec(CASE_K1, 0.3)
    A, B = well_matrices(spec)
    assert well_matrices(WellSpec(CASE_K1, 0.3)) is well_matrices(spec)
    # Bit-identical to freshly built matrices.
    assert A.tobytes() == np.array([[1.0, -0.3], [0.0, 1.0]]).tobytes()
    assert B.tobytes() == np.array([[1.0, 0.3], [0.0, 1.0]]).tobytes()
    for m in (A, B):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 2.0
    assert A[0, 0] == 1.0


def test_well_matrices_degenerate_strain_limit():
    A, B = well_matrices(WellSpec(CASE_K2, 1e-12))
    assert np.abs(A - np.eye(2)).max() <= 2e-12
    assert np.abs(B - np.eye(2)).max() <= 2e-12


def test_determinants():
    A, B = well_matrices(WellSpec(CASE_K1, 0.3))
    assert np.linalg.det(A) == pytest.approx(1.0)
    assert np.linalg.det(B) == pytest.approx(1.0)
    A, B = well_matrices(WellSpec(CASE_K2, 0.3))
    assert np.linalg.det(A) == pytest.approx(0.7)
    assert np.linalg.det(B) == pytest.approx(1.3)


def test_spec_validation():
    with pytest.raises(ValueError):
        WellSpec("k3", 0.1)
    with pytest.raises(ValueError):
        WellSpec(CASE_K1, 0.0)
    with pytest.raises(ValueError):
        WellSpec(CASE_K2, 1.0)
    assert WellSpec(CASE_K2, 0.6).theory_notes()
    assert not WellSpec(CASE_K2, 0.3).theory_notes()
    # A NaN strain never reaches the well matrices.
    with pytest.raises(ValueError):
        WellSpec(CASE_K1, float("nan"))


def test_orbit_distance_of_member_is_zero():
    A, _ = well_matrices(WellSpec(CASE_K2, 0.2))
    d = dist_to_rotated_well(A, A)
    assert d.distance == pytest.approx(0.0, abs=1e-12)
    assert d.angle == pytest.approx(0.0, abs=1e-12)


def test_identity_distance_frozen_values():
    # Frozen from the dense angle scan (1e6 samples + golden section).
    A2, _ = well_matrices(WellSpec(CASE_K2, 0.2))
    assert dist_to_rotated_well(np.eye(2), A2).distance == pytest.approx(0.2, abs=1e-12)
    A1, _ = well_matrices(WellSpec(CASE_K1, 0.2))
    expect = math.sqrt(4.0 + 0.04 - 2.0 * math.sqrt(4.04))
    assert dist_to_rotated_well(np.eye(2), A1).distance == pytest.approx(expect, abs=1e-12)
    assert expect == pytest.approx(0.1416, abs=5e-5)


def test_closed_form_matches_angle_scan_oracle():
    rng = np.random.default_rng(11)
    specs = [WellSpec(CASE_K1, 0.3), WellSpec(CASE_K2, 0.25)]
    for _ in range(1000):
        F = rng.uniform(-3.0, 3.0, (2, 2))
        G = well_matrices(specs[rng.integers(2)])[rng.integers(2)]
        closed = dist_to_rotated_well(F, G)
        oracle = angle_scan_distance(F, G)
        assert abs(closed.distance - oracle.distance) < 1e-9


def test_angle_scan_grid_memoized_and_read_only():
    grid = wells._angle_grid()
    assert wells._angle_grid() is grid
    # Bit-identical to a freshly built grid.
    phis = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    for got, want in zip(grid, (phis, np.cos(phis), np.sin(phis))):
        assert got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 1.0
    rng = np.random.default_rng(29)
    G = well_matrices(WellSpec(CASE_K2, 0.25))[1]
    for _ in range(20):
        F = rng.uniform(-3.0, 3.0, (2, 2))
        first = angle_scan_distance(F, G)
        assert angle_scan_distance(F, G) == first


def test_orbit_invariance_under_rotations():
    rng = np.random.default_rng(5)
    G = well_matrices(WellSpec(CASE_K2, 0.2))[1]
    for _ in range(1000):
        F = rng.uniform(-3.0, 3.0, (2, 2))
        R = rotation(rng.uniform(0.0, 2.0 * math.pi))
        d1 = dist_to_rotated_well(F, G).distance
        d2 = dist_to_rotated_well(R @ F, G).distance
        assert abs(d1 - d2) < 1e-10


def test_distance_below_any_sampled_rotation():
    rng = np.random.default_rng(17)
    G = well_matrices(WellSpec(CASE_K1, 0.35))[0]
    for _ in range(20):
        F = rng.uniform(-3.0, 3.0, (2, 2))
        d = dist_to_rotated_well(F, G).distance
        for _ in range(100):
            Q = rotation(rng.uniform(0.0, 2.0 * math.pi))
            assert d <= np.linalg.norm(F - Q @ G) + 1e-12


def test_optimal_angle_attains_distance():
    rng = np.random.default_rng(23)
    G = well_matrices(WellSpec(CASE_K2, 0.15))[0]
    for _ in range(100):
        F = rng.uniform(-2.0, 2.0, (2, 2))
        d = dist_to_rotated_well(F, G)
        attained = np.linalg.norm(F - rotation(d.angle) @ G)
        assert attained == pytest.approx(d.distance, abs=1e-10)


def test_degenerate_rotation_flagged():
    d = dist_to_rotated_well(np.zeros((2, 2)), np.eye(2))
    assert d.degenerate
    assert d.angle == 0.0


def test_dist_to_wells_examples():
    spec = WellSpec(CASE_K2, 0.2)
    _, B2 = well_matrices(spec)
    r = dist_to_wells(B2, spec)
    assert r.distance == pytest.approx(0.0, abs=1e-12)
    assert r.nearest_well == "B"

    # Both wells are exactly alpha away from the identity; tie goes to A.
    r = dist_to_wells(np.eye(2), spec)
    assert r.distance == pytest.approx(0.2, abs=1e-12)
    assert r.nearest_well == "A"

    spec1 = WellSpec(CASE_K1, 0.2)
    A1, _ = well_matrices(spec1)
    r = dist_to_wells(rotation(0.3) @ A1, spec1)
    assert r.distance == pytest.approx(0.0, abs=1e-12)
    assert r.nearest_well == "A"
    assert r.optimal_angle == pytest.approx(0.3, abs=1e-9)


def test_stacks_match_single_matrix_calls_bit_for_bit():
    # 130 matrices cross the angle scan's 64-matrix blocks twice; the identity
    # is an exact k2 tie (nearest well A), the zero matrix a degenerate orbit.
    spec = WellSpec(CASE_K2, 0.2)
    G = well_matrices(spec)[1]
    F = np.random.default_rng(31).uniform(-3.0, 3.0, (130, 2, 2))
    F[7] = np.eye(2)
    F[100] = 0.0
    F = F.reshape(2, 65, 2, 2)
    for fn, arg in ((dist_to_rotated_well, G), (angle_scan_distance, G), (dist_to_wells, spec)):
        stacked = fn(F, arg)
        assert all(np.shape(col) == (2, 65) for col in stacked)
        for idx in np.ndindex(2, 65):
            single = fn(F[idx], arg)
            assert {type(v) for v in single} <= {float, bool, str}
            # repr tells the bits of a float apart, -0.0 from 0.0 included.
            assert repr(single) == repr(type(single)(*(col[idx].item() for col in stacked)))
    tie = dist_to_wells(F[0, 7], spec)
    assert tie.nearest_well == "A" and tie.distance == pytest.approx(0.2, abs=1e-12)
    zero = dist_to_rotated_well(F[1, 35], G)
    assert zero.degenerate and zero.angle == 0.0
    assert dist_to_wells(F[1, 35], spec).degenerate
    with pytest.raises(ValueError, match="stack"):
        dist_to_wells(np.zeros((3, 4)), spec)


def test_rank_one_connection_counts_and_values():
    for a in (0.1, 0.2, 0.4):
        roots2 = rank_one_connections(WellSpec(CASE_K2, a))
        assert roots2 == [0.0]
        roots1 = rank_one_connections(WellSpec(CASE_K1, a))
        assert len(roots1) == 2
        assert roots1[0] == pytest.approx(0.0, abs=1e-9)
        # det(A - Q B) = 2 (1 - cos phi - a sin phi): second root 2 atan(a).
        assert roots1[1] == pytest.approx(2.0 * math.atan(a), abs=1e-9)


def _rank_one_scan(A, B, grid=10_000):
    """Reference roots of det(A - Q(phi) B) in [0, 2pi) by numeric search.

    Simple roots come from sign changes on a uniform grid refined by
    bisection; tangential roots (the determinant touches zero without a sign
    change, as in case k2) from grid minima of |det| refined by
    golden-section search.
    """
    def det(phi):
        phi = np.asarray(phi, dtype=float)
        c, s = np.cos(phi), np.sin(phi)
        m11 = A[0, 0] - (c * B[0, 0] - s * B[1, 0])
        m12 = A[0, 1] - (c * B[0, 1] - s * B[1, 1])
        m21 = A[1, 0] - (s * B[0, 0] + c * B[1, 0])
        m22 = A[1, 1] - (s * B[0, 1] + c * B[1, 1])
        return m11 * m22 - m12 * m21

    phis = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    vals = det(phis)
    scale = float(np.max(np.abs(vals))) or 1.0
    step = 2.0 * math.pi / grid
    roots = []

    def bisect(a, b):
        fa = float(det(a))
        for _ in range(200):
            m = 0.5 * (a + b)
            fm = float(det(m))
            if fa * fm <= 0.0:
                b = m
            else:
                a, fa = m, fm
            if b - a < 1e-12:
                break
        return 0.5 * (a + b)

    def golden_min(a, b):
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        x1, x2 = b - invphi * (b - a), a + invphi * (b - a)
        f1, f2 = abs(float(det(x1))), abs(float(det(x2)))
        for _ in range(200):
            if f1 < f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - invphi * (b - a)
                f1 = abs(float(det(x1)))
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + invphi * (b - a)
                f2 = abs(float(det(x2)))
            if b - a < 1e-13:
                break
        return 0.5 * (a + b)

    ext = np.append(vals, vals[0])
    for i in range(grid):
        if ext[i] == 0.0:
            roots.append(phis[i])
        elif ext[i] * ext[i + 1] < 0.0:
            roots.append(bisect(phis[i], phis[i] + step))
    absvals = np.abs(vals)
    for i in range(grid):
        if (absvals[i] <= absvals[i - 1] and absvals[i] <= absvals[(i + 1) % grid]
                and absvals[i] < 1e-4 * scale):
            m = golden_min(phis[i] - step, phis[i] + step)
            if abs(float(det(m))) < 1e-10 * scale:
                roots.append(m)

    merged = []
    for r in sorted(r % (2.0 * math.pi) for r in roots):
        if not merged or abs(r - merged[-1]) > 1e-9:
            merged.append(r)
    return [0.0 if r < 1e-12 or 2.0 * math.pi - r < 1e-12 else r for r in merged]


def test_rank_one_closed_form_matches_scan_oracle():
    for a in np.linspace(0.01, 0.99, 40):
        for case in (CASE_K1, CASE_K2):
            spec = WellSpec(case, float(a))
            closed = rank_one_connections(spec)
            scanned = _rank_one_scan(*well_matrices(spec))
            assert len(closed) == len(scanned) == (2 if case == CASE_K1 else 1)
            np.testing.assert_allclose(closed, scanned, rtol=0.0, atol=1e-9)


def test_rank_one_count_error_is_detectable(monkeypatch):
    # det(I - 2 Q(phi)) = 5 - 4 cos(phi) > 0: no rank-one connection at all.
    pair = (np.eye(2), 2.0 * np.eye(2))
    assert _rank_one_scan(*pair) == []
    monkeypatch.setattr(wells, "well_matrices", lambda spec: pair)
    with pytest.raises(RankOneCountError):
        rank_one_connections(WellSpec(CASE_K1, 0.2))


def test_degeneracy_gap_at_e1_and_orders():
    for case in (CASE_K1, CASE_K2):
        assert interface_degeneracy_gap(WellSpec(case, 0.2), np.array([1.0, 0.0])) == 0.0
    with pytest.raises(ValueError):
        interface_degeneracy_gap(WellSpec(CASE_K1, 0.2), np.array([1.0, 1.0]))

    ts = np.geomspace(1e-4, 1e-2, 15)
    gaps1 = np.array([interface_degeneracy_gap(WellSpec(CASE_K1, 0.2),
                                               np.array([math.cos(t), math.sin(t)]))
                      for t in ts])
    # Linear vanishing with coefficient -2 alpha.
    np.testing.assert_allclose(gaps1 / ts, -0.4, rtol=0.02)
    gaps2 = np.array([interface_degeneracy_gap(WellSpec(CASE_K2, 0.2),
                                               np.array([math.cos(t), math.sin(t)]))
                      for t in ts])
    assert np.max(np.abs(gaps2 / ts)) < 0.005
    np.testing.assert_allclose(gaps2 / ts ** 2, -0.4, rtol=0.05)


def test_swap_conjugation_inequality():
    rng = np.random.default_rng(3)
    spec = WellSpec(CASE_K1, 0.3)
    for _ in range(1000):
        F = rng.uniform(-3.0, 3.0, (2, 2))
        lhs = dist_to_wells(Z_SWAP @ F @ Z_SWAP, spec).distance
        rhs = dist_to_wells(F, spec).distance + spec.alpha ** 2
        assert lhs <= rhs + 1e-12


def test_realigning_rotation_bound():
    for a in (0.05, 0.1, 0.2, 0.4, 0.9):
        A1, _ = well_matrices(WellSpec(CASE_K1, a))
        dev = np.linalg.norm(rotation_ra(a) @ Z_SWAP @ A1 @ Z_SWAP - A1)
        assert dev <= a * a
