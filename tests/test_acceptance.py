"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The underlying scaling statements carry unknown universal constants, so the
criteria are exponent fits, exact-identity checks, property suites and one
regression-pinned two-sided ratio; every tolerance is stated inline.
"""

import hashlib
import itertools
import math

import numpy as np

from twowell.checks import sample_average_lemma_field
from twowell.energy import total_energy
from twowell.fem import (
    DiscreteField,
    Mesh,
    MinimizeOptions,
    discrete_energy,
    discrete_gradient,
    minimize,
    seed_from_construction,
)
from twowell.microstructure import (
    best_construction,
    horizontal_branched,
    k1_boundary_cell,
    k1_cell,
    k2_boundary_cell,
    k2_cell,
    laminate,
    vertical_branched_k1,
)
from twowell.piecewise import Rect, coverage_check, identity_deformation
from twowell.scaling import (
    RATIO_PIN_C,
    check_average_lemma,
    classify_regime,
    min_energy_bound,
    phase_diagram,
)
from twowell.wells import (
    CASE_K1,
    CASE_K2,
    WellSpec,
    Z_SWAP,
    angle_scan_distance,
    dist_to_wells,
    interface_degeneracy_gap,
    rank_one_connections,
    rotation_ra,
    well_matrices,
)

EPS_GRID = (1e-7, 3e-7, 1e-6, 3e-6, 1e-5, 3e-5, 1e-4)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _sweep_slope(case: str, theta: float | None = None) -> float:
    spec = WellSpec(case, 0.1)
    pts = []
    for eps in EPS_GRID:
        _, b, _ = best_construction(spec, eps, 1.0, 1.0, theta=theta)
        if classify_regime(case, 0.1, eps, 1.0, 1.0) == "BR":
            pts.append((eps, b.total))
    assert len(pts) >= 4
    return float(np.polyfit(np.log([p[0] for p in pts]),
                            np.log([p[1] for p in pts]), 1)[0])


def test_criterion_01_exponent_four_fifths():
    slope = _sweep_slope(CASE_K2)
    _report(1, abs(slope - 0.80) <= 0.05,
            f"k2 constructed-energy slope vs eps = {slope:.4f} (target 0.80 +- 0.05)")


def test_criterion_01_misses_four_fifths_below_the_theta_window():
    # Negative control: at theta = 1/3 <= 2^(-4/3) the k2 cells' elastic
    # level sums diverge, and the same fit misses the criterion's window.
    # Just above 2^(-4/3) the fit is pre-asymptotic, so nothing is asserted there.
    slope = _sweep_slope(CASE_K2, theta=1.0 / 3.0)
    assert abs(slope - 0.80) > 0.05, slope


def test_criterion_02_exponent_two_thirds():
    slope = _sweep_slope(CASE_K1)
    _report(2, abs(slope - 2.0 / 3.0) <= 0.05,
            f"k1 constructed-energy slope vs eps = {slope:.4f} (target 0.667 +- 0.05)")


def test_criterion_03_cell_energy_laws():
    hs = [2.0 ** -k for k in (6, 5, 4, 3)]
    e2 = [total_energy(k2_cell((0, 0), 1.0, h, 0.1), WellSpec(CASE_K2, 0.1), 1.0).elastic
          for h in hs]
    e1 = [total_energy(k1_cell((0, 0), 1.0, h, 0.1), WellSpec(CASE_K1, 0.1), 1.0).elastic
          for h in hs]
    s2 = float(np.polyfit(np.log(hs), np.log(e2), 1)[0])
    s1 = float(np.polyfit(np.log(hs), np.log(e1), 1)[0])
    _report(3, abs(s2 - 5.0) <= 0.15 and abs(s1 - 3.0) <= 0.15,
            f"cell elastic slopes in h: k2 {s2:.3f} (5.0 +- 0.15), "
            f"k1 {s1:.3f} (3.0 +- 0.15)")


def test_criterion_04_identity_energies_exact():
    a = 0.2
    iden = identity_deformation(Rect(0.0, 0.0, 1.0, 1.0))
    e2 = total_energy(iden, WellSpec(CASE_K2, a), 1.0).elastic
    e1 = total_energy(iden, WellSpec(CASE_K1, a), 1.0).elastic
    t2 = a * a
    t1 = 4.0 + a * a - 2.0 * math.sqrt(4.0 + a * a)
    # cross-check the closed forms against the dense angle-scan oracle
    o2 = min(angle_scan_distance(np.eye(2), G).distance
             for G in well_matrices(WellSpec(CASE_K2, a))) ** 2
    o1 = min(angle_scan_distance(np.eye(2), G).distance
             for G in well_matrices(WellSpec(CASE_K1, a))) ** 2
    ok = (abs(e2 - t2) <= 1e-6 * t2 and abs(e1 - t1) <= 1e-6 * t1
          and abs(o2 - t2) <= 1e-9 and abs(o1 - t1) <= 1e-9)
    _report(4, ok, f"E2[id]={e2:.9e} vs {t2:.9e}; E1[id]={e1:.9e} vs {t1:.9e} "
                   f"(1e-6 relative)")


# sha256 of the repr of (label, elastic, tv_bulk, tv_jump, total,
# error_estimate, warnings) at each point of the 150-point grid, in order: a
# change that moves any bit of any breakdown there must re-pin it and say so.
_GRID_SHA256 = "5bd0a05a037824d43914b12c31ee9027e9cffd6b73eb47c80da5580b8d705223"


def test_criterion_05_two_sided_ratio_pin():
    ratios = []
    digest = hashlib.sha256()
    for case in (CASE_K2, CASE_K1):
        for eps, asp, a in itertools.product(
                (1e-7, 1e-6, 1e-5, 1e-4, 1e-3), (0.25, 0.5, 1.0, 2.0, 4.0),
                (0.05, 0.1, 0.2)):
            L, H = math.sqrt(asp), 1.0 / math.sqrt(asp)
            spec = WellSpec(case, a)
            _, b, label = best_construction(spec, eps, L, H)
            bound = min_energy_bound(case, a, eps, L, H)
            ratios.append(b.total / bound.value)
            digest.update(repr((label, b.elastic, b.tv_bulk, b.tv_jump, b.total,
                                b.error_estimate, b.warnings)).encode())
    lo, hi = min(ratios), max(ratios)
    _report(5, lo >= 1.0 and hi <= RATIO_PIN_C,
            f"total/bound over 150-point grid in [{lo:.2f}, {hi:.2f}] "
            f"(pinned [1, {RATIO_PIN_C:g}])")
    assert digest.hexdigest() == _GRID_SHA256


def test_criterion_06_rank_one_structure():
    ok = True
    counts = []
    for a in (0.1, 0.2, 0.4):
        n1 = len(rank_one_connections(WellSpec(CASE_K1, a)))
        n2 = len(rank_one_connections(WellSpec(CASE_K2, a)))
        counts.append((a, n1, n2))
        ok &= (n1 == 2 and n2 == 1)
    _report(6, ok, f"rank-one root counts (k1, k2) per alpha: {counts}")


def test_criterion_07_degeneracy_orders():
    ts = np.geomspace(1e-4, 1e-2, 12)
    fits = {}
    for case in (CASE_K1, CASE_K2):
        gaps = [abs(interface_degeneracy_gap(WellSpec(case, 0.2),
                                             np.array([math.cos(t), math.sin(t)])))
                for t in ts]
        fits[case] = float(np.polyfit(np.log(ts), np.log(gaps), 1)[0])
    ok = abs(fits[CASE_K1] - 1.0) <= 0.1 and abs(fits[CASE_K2] - 2.0) <= 0.1
    _report(7, ok, f"vanishing orders near e1: k1 {fits[CASE_K1]:.3f} "
                   f"(1.0 +- 0.1), k2 {fits[CASE_K2]:.3f} (2.0 +- 0.1)")


def test_criterion_08_rotation_conjugation():
    rng = np.random.default_rng(2024)
    spec = WellSpec(CASE_K1, 0.3)
    worst = -1.0
    for _ in range(1000):
        F = rng.uniform(-3.0, 3.0, (2, 2))
        lhs = dist_to_wells(Z_SWAP @ F @ Z_SWAP, spec).distance
        rhs = dist_to_wells(F, spec).distance + spec.alpha ** 2
        worst = max(worst, lhs - rhs)
    ra_worst = -1.0
    for a in (0.05, 0.1, 0.2, 0.4, 0.9):
        A1 = well_matrices(WellSpec(CASE_K1, a))[0]
        ra_worst = max(ra_worst,
                       float(np.linalg.norm(rotation_ra(a) @ Z_SWAP @ A1 @ Z_SWAP - A1))
                       - a * a)
    ok = worst <= 1e-12 and ra_worst <= 0.0
    _report(8, ok, f"conjugation inequality margin {worst:.2e} on 1000 matrices; "
                   f"realigning-rotation margin {ra_worst:.2e} on 5 strains")


def test_criterion_09_averaging_harness():
    bad = 0
    for seed in (0, 31337):
        rng = np.random.default_rng(seed)
        for _ in range(1000):
            v, d, e, area = sample_average_lemma_field(rng)
            if not check_average_lemma(v, d, e, area).holds:
                bad += 1
    _report(9, bad == 0, f"both averaging inequalities hold on 2x1000 sampled "
                         f"fields ({bad} violations)")


def test_criterion_10_minimizer_sandwich():
    case, a, eps = CASE_K2, 0.1, 1e-4
    spec = WellSpec(case, a)
    mesh = Mesh(96, 96, Rect(0.0, 0.0, 1.0, 1.0))

    # gradient-FD agreement beforehand
    rng = np.random.default_rng(5)
    vals = mesh.nodes.copy()
    vals[mesh.free_mask] += 0.02 * rng.standard_normal((mesh.n_free, 2))
    fld = DiscreteField(mesh, vals)
    g = discrete_gradient(fld, spec, eps)
    fd_worst = 0.0
    for i in rng.choice(np.flatnonzero(mesh.free_mask), 10, replace=False):
        for c in range(2):
            h = 1e-7
            vp, vm = vals.copy(), vals.copy()
            vp[i, c] += h
            vm[i, c] -= h
            fd = (discrete_energy(DiscreteField(mesh, vp), spec, eps)[2]
                  - discrete_energy(DiscreteField(mesh, vm), spec, eps)[2]) / (2 * h)
            fd_worst = max(fd_worst, abs(fd - g[i, c]) / max(abs(fd), 1e-10))

    construction = horizontal_branched(spec, eps, Rect(0.0, 0.0, 1.0, 1.0))
    seed_field, _ = seed_from_construction(construction, mesh)
    seed_energy = discrete_energy(seed_field, spec, eps)[2]
    opts = MinimizeOptions(max_iter=400)
    res_c = minimize(seed_field, spec, eps, opts)
    res_i = minimize(DiscreteField.identity(mesh), spec, eps, opts)
    best = min(res_c.final_energy.total, res_i.final_energy.total)
    lower = min_energy_bound(case, a, eps, 1.0, 1.0).value / RATIO_PIN_C
    ok = fd_worst < 1e-5 and best <= seed_energy + 1e-12 and best >= lower
    _report(10, ok,
            f"FD agreement {fd_worst:.2e} (<1e-5); multistart min {best:.6e} "
            f"in [bound/C, seed] = [{lower:.3e}, {seed_energy:.6e}]")


def test_criterion_11_phase_diagrams():
    pd2 = phase_diagram(CASE_K2, 0.1, (0.5, 6.0), 121)
    ok2 = pd2.labels() == {"A", "HL", "BR"}
    pd1 = phase_diagram(CASE_K1, 0.1, (0.5, 6.0), 200)
    ok1 = pd1.labels() == {"A", "BR", "HL", "VB1", "VB2", "VL"}
    # austenite contains {L/eps < 1/alpha} u {H/eps < 1/alpha}
    contain = True
    for j, lh in enumerate(pd1.log10_over_eps):
        for i, ll in enumerate(pd1.log10_over_eps):
            if (10.0 ** ll < 10.0 or 10.0 ** lh < 10.0) and pd1.regimes[j, i] != "A":
                contain = False
    # and its boundary on the far edges is L/eps = 1/alpha within one cell
    step = pd1.log10_over_eps[1] - pd1.log10_over_eps[0]
    k_top = next(i for i, r in enumerate(pd1.regimes[-1, :]) if r != "A")
    k_right = next(j for j, r in enumerate(pd1.regimes[:, -1]) if r != "A")
    edge_ok = (abs(pd1.log10_over_eps[k_top] - 1.0) <= step + 1e-12
               and abs(pd1.log10_over_eps[k_right] - 1.0) <= step + 1e-12)
    ok = ok2 and ok1 and contain and edge_ok
    _report(11, ok, f"k2 labels {sorted(pd2.labels())}; k1 labels "
                    f"{sorted(pd1.labels())}; A-region boundary within one cell")


def test_criterion_12_construction_residuals():
    worst = 0.0
    cells = [
        k2_cell((0.0, 0.0), 1.0, 0.25, 0.1),
        k2_boundary_cell((0.0, 0.0), 1.0, 0.25, 0.1),
        k1_cell((0.0, 0.0), 1.0, 0.25, 0.1),
        k1_cell((0.0, 0.0), 1.0, 0.25, 0.1, gamma_kind="linear"),
        k1_boundary_cell((0.0, 0.0), 1.0, 0.25, 0.1),
        laminate(Rect(0.0, 0.0, 1.0, 1.0), 0.125, 0.1, CASE_K2),
        laminate(Rect(0.0, 0.0, 1.0, 1.0), 0.125, 0.1, CASE_K1),
    ]
    for d in cells:
        rep = coverage_check(d, boundary_tol=None)
        worst = max(worst, rep.area_residual, rep.continuity_max)
    dom = Rect(0.0, 0.0, 1.0, 1.0)
    globals_ = [
        horizontal_branched(WellSpec(CASE_K2, 0.1), 1e-5, dom),
        horizontal_branched(WellSpec(CASE_K1, 0.1), 1e-5, dom),
        horizontal_branched(WellSpec(CASE_K1, 0.1), 1e-4, dom, gamma_kind="linear"),
        vertical_branched_k1(WellSpec(CASE_K1, 0.1), 1e-5, dom),
        best_construction(WellSpec(CASE_K2, 0.1), 0.5, 1.0, 1.0)[0],
    ]
    for d in globals_:
        rep = coverage_check(d)
        worst = max(worst, rep.area_residual, rep.continuity_max, rep.boundary_max)
    _report(12, worst < 1e-10,
            f"max boundary-trace/continuity/tiling residual {worst:.3e} (<1e-10)")
