"""Self-contained invariant suite backing the ``validate`` CLI command.

Each check recomputes a mathematical fact from scratch (oracle scans,
finite differences, trace sampling) with a seeded generator, so a pass is
seed-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fem import DiscreteField, Mesh, discrete_energy, discrete_gradient
from .microstructure import (
    horizontal_branched,
    k1_boundary_cell,
    k1_cell,
    k2_boundary_cell,
    k2_cell,
)
from .piecewise import Rect, coverage_check
from .profiles import sawtooth, smooth_step
from .scaling import check_average_lemma
from .wells import (
    CASE_K1,
    CASE_K2,
    WellSpec,
    Z_SWAP,
    angle_scan_distance,
    dist_to_rotated_well,
    dist_to_wells,
    interface_degeneracy_gap,
    rank_one_connections,
    rotation_ra,
    well_matrices,
)

__all__ = ["CheckResult", "gradient_fd_error", "run_checks", "sample_average_lemma_field"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_mats(u: np.ndarray) -> np.ndarray:
    """Matrices with entries uniform in [-3, 3) from rows of four uniforms in
    [0, 1), the same bits as ``rng.uniform(-3.0, 3.0, (2, 2))`` per row."""
    return (-3.0 + 6.0 * u).reshape(-1, 2, 2)


def _rotations(phi: np.ndarray) -> np.ndarray:
    """The stack of :func:`rotation` matrices of the angles ``phi``."""
    c, s = np.cos(phi), np.sin(phi)
    return np.stack([c, -s, s, c], axis=-1).reshape(*phi.shape, 2, 2)


def sample_average_lemma_field(rng):
    """64 random samples satisfying the averaging-lemma hypotheses exactly.

    Draws a bounded field, shifts it along e so the parallel component has
    mean one, then raises d where |v| exceeds 1 + d.
    """
    phi = rng.uniform(0.0, 2.0 * math.pi)
    e = np.array([math.cos(phi), math.sin(phi)])
    v = rng.normal(0.0, rng.uniform(0.05, 0.8), (64, 2))
    v += rng.uniform(-0.5, 0.5, 2)
    v += (1.0 - np.mean(v @ e)) * e
    d = np.maximum(rng.uniform(0.0, 0.3, 64), np.linalg.norm(v, axis=1) - 1.0)
    area = rng.uniform(0.1, 5.0)
    return v, d, e, area


def gradient_fd_error(rng, gradient=discrete_gradient) -> float:
    """Largest relative mismatch between ``gradient`` and central differences
    of :func:`discrete_energy` on perturbed 10x8 fields of both cases.

    The error of an entry is taken against the larger of its difference
    quotient and 1% of the largest sampled gradient entry: for an entry far
    below the typical one, the rounding of the whole energy sum (about
    1e-11 in the difference quotient at h = 1e-7) would dominate a purely
    pointwise relative error."""
    mesh = Mesh(10, 8, Rect(0.0, 0.0, 1.0, 1.0))
    worst = 0.0
    for case in (CASE_K1, CASE_K2):
        spec = WellSpec(case, 0.2)
        vals = mesh.nodes.copy()
        vals[mesh.free_mask] += 0.02 * rng.standard_normal((mesh.n_free, 2))
        g = gradient(DiscreteField(mesh, vals), spec, 1e-3)
        fds, gs = [], []
        for i in rng.choice(np.flatnonzero(mesh.free_mask), 15, replace=False):
            for c in range(2):
                h = 1e-7
                vp, vm = vals.copy(), vals.copy()
                vp[i, c] += h
                vm[i, c] -= h
                fds.append((discrete_energy(DiscreteField(mesh, vp), spec, 1e-3)[2]
                            - discrete_energy(DiscreteField(mesh, vm), spec, 1e-3)[2])
                           / (2 * h))
                gs.append(g[i, c])
        fd, gv = np.array(fds), np.array(gs)
        scale = np.maximum(np.abs(fd), 1e-2 * float(np.max(np.abs(gv))))
        worst = max(worst, float(np.max(np.abs(fd - gv) / scale)))
    return worst


def run_checks(seed: int = 0) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def record(name, passed, detail):
        results.append(CheckResult(name, bool(passed), detail))

    # Closed-form orbit distance against the dense angle-scan oracle.
    B_scan = well_matrices(WellSpec(CASE_K1, 0.3))[1]
    F = _random_mats(rng.random((300, 4)))
    worst = float(np.max(np.abs(dist_to_rotated_well(F, B_scan).distance
                                - angle_scan_distance(F, B_scan).distance)))
    record("orbit-distance closed form vs angle scan", worst < 1e-9,
           f"max deviation {worst:.3e}")

    # Orbit invariance under left rotations.  Each sample draws F, then the
    # rotation angle: five uniforms a row.
    G = well_matrices(WellSpec(CASE_K2, 0.25))[0]
    u = rng.random((300, 5))
    F = _random_mats(u[:, :4])
    R = _rotations(2 * math.pi * u[:, 4])
    worst = float(np.max(np.abs(dist_to_rotated_well(R @ F, G).distance
                                - dist_to_rotated_well(F, G).distance)))
    record("orbit distance rotation invariance", worst < 1e-10,
           f"max deviation {worst:.3e}")

    # Distance is a lower bound for any particular rotation: 50 F, each
    # followed by its 20 sampled angles.
    u = rng.random((50, 24))
    F = _random_mats(u[:, :4])
    Q = _rotations(2 * math.pi * u[:, 4:])
    # |F - Q G| as the dot product of the entries with themselves, the sum
    # np.linalg.norm takes of a single matrix.
    diff = (F[:, None] - Q @ G).reshape(-1, 1, 4)
    norms = np.sqrt((diff @ diff.transpose(0, 2, 1)).reshape(50, 20))
    worst = float(np.max(dist_to_rotated_well(F, G).distance[:, None] - norms, initial=-1.0))
    record("orbit distance majorized by samples", worst < 1e-12,
           f"max excess {worst:.3e}")

    # Swap-conjugation distance inequality, case k1.
    spec1 = WellSpec(CASE_K1, 0.3)
    F = _random_mats(rng.random((1000, 4)))
    lhs = dist_to_wells(Z_SWAP @ F @ Z_SWAP, spec1).distance
    rhs = dist_to_wells(F, spec1).distance + spec1.alpha ** 2
    worst = float(np.max(lhs - rhs, initial=-1.0))
    record("swap-conjugation distance inequality", worst <= 1e-12,
           f"max violation {worst:.3e}")

    # Realigning rotation bound for five strains.
    worst = -1.0
    for a in (0.05, 0.1, 0.2, 0.4, 0.9):
        A1 = well_matrices(WellSpec(CASE_K1, a))[0]
        dev = float(np.linalg.norm(rotation_ra(a) @ Z_SWAP @ A1 @ Z_SWAP - A1))
        worst = max(worst, dev - a * a)
    record("realigning rotation within alpha^2", worst <= 0.0,
           f"max excess {worst:.3e}")

    # Rank-one connection counts.
    ok, detail = True, []
    for a in (0.1, 0.2, 0.4):
        try:
            r1 = rank_one_connections(WellSpec(CASE_K1, a))
            r2 = rank_one_connections(WellSpec(CASE_K2, a))
            detail.append(f"a={a}: k1 {len(r1)} roots, k2 {len(r2)}")
        except Exception as exc:
            ok = False
            detail.append(f"a={a}: {exc}")
    record("rank-one connection counts (2 and 1)", ok, "; ".join(detail))

    # Vanishing order of |Av| - |Bv| near e1.
    ts = np.geomspace(1e-4, 1e-2, 12)
    orders = {}
    for case in (CASE_K1, CASE_K2):
        spec = WellSpec(case, 0.2)
        gaps = [abs(interface_degeneracy_gap(spec, np.array([math.cos(t), math.sin(t)])))
                for t in ts]
        orders[case] = float(np.polyfit(np.log(ts), np.log(gaps), 1)[0])
    ok = abs(orders[CASE_K1] - 1.0) < 0.1 and abs(orders[CASE_K2] - 2.0) < 0.1
    record("interface degeneracy orders (1 and 2)", ok,
           f"k1 {orders[CASE_K1]:.3f}, k2 {orders[CASE_K2]:.3f}")

    # Cell boundary traces and continuity.
    worst = 0.0
    ys = np.linspace(0.0, 0.25, 129)
    for builder, case in ((k2_cell, CASE_K2), (k1_cell, CASE_K1)):
        d = builder((0.0, 0.0), 1.0, 0.25, 0.3)
        rep = coverage_check(d, boundary_tol=None)
        worst = max(worst, rep.continuity_max, rep.area_residual)
        u, _ = d.evaluate(np.column_stack([np.full_like(ys, 1.0), ys]))
        saw = 0.3 * sawtooth(0.25, ys)
        expect = (np.column_stack([np.full_like(ys, 1.0), ys + saw]) if case == CASE_K2
                  else np.column_stack([1.0 + saw, ys]))
        worst = max(worst, float(np.max(np.abs(u - expect))))
    for builder in (k2_boundary_cell, k1_boundary_cell):
        d = builder((0.0, 0.0), 1.0, 0.25, 0.3)
        rep = coverage_check(d, boundary_tol=None)
        worst = max(worst, rep.continuity_max, rep.area_residual)
        u, _ = d.evaluate(np.column_stack([np.zeros_like(ys), ys]))
        worst = max(worst, float(np.max(np.abs(u - np.column_stack([np.zeros_like(ys), ys])))))
    record("cell traces and continuity", worst < 1e-12, f"max residual {worst:.3e}")

    # Small global assemblies: tiling, continuity, identity boundary.
    worst = 0.0
    for case in (CASE_K1, CASE_K2):
        d = horizontal_branched(WellSpec(case, 0.15), 1e-3, Rect(0.0, 0.0, 1.0, 1.0))
        rep = coverage_check(d)
        worst = max(worst, rep.continuity_max, rep.boundary_max, rep.area_residual)
    record("global assembly coverage", worst < 1e-10, f"max residual {worst:.3e}")

    # Averaging-lemma harness.
    bad = 0
    for _ in range(200):
        v, dd, e, area = sample_average_lemma_field(rng)
        if not check_average_lemma(v, dd, e, area).holds:
            bad += 1
    record("averaging inequalities on sampled fields", bad == 0,
           f"{bad} violations out of 200")

    # Discrete gradient against finite differences.
    worst = gradient_fd_error(rng)
    record("discrete gradient vs finite differences", worst < 1e-5,
           f"max relative error {worst:.3e}")

    # Ramp and sawtooth identities.
    g0, d1, d2, _ = smooth_step(np.array([0.0, 1.0, 0.5]))
    ok = (abs(g0[0]) < 1e-15 and abs(g0[1] - 1.0) < 1e-15 and abs(g0[2] - 0.5) < 1e-15
          and np.all(np.abs(d1[:2]) < 1e-15) and np.all(np.abs(d2[:2]) < 1e-15)
          and abs(float(sawtooth(1.0, 0.25)) - 0.25) < 1e-15
          and abs(float(sawtooth(1.0, 0.5))) < 1e-15)
    record("ramp and sawtooth identities", ok, "endpoint values and derivatives")

    return results
