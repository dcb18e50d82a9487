"""Correctness checks for the benchmark's outputs.

Every check compares a program output with an independent computation or a
required property, never with a stored copy, and returns a list of problem
descriptions (empty when the output is correct).
"""

from __future__ import annotations

import csv
import math
import xml.etree.ElementTree as ET

import numpy as np

from twowell.wells import CASE_K1, CASE_K2, WellSpec, dist_to_wells

# ---------------------------------------------------------------------------
# ratio_grid
# ---------------------------------------------------------------------------


def identity_energy(case: str, alpha: float, L: float, H: float) -> float:
    """Closed-form energy of the identity deformation (no surface term)."""
    if case == CASE_K2:
        return alpha * alpha * L * H
    return (4.0 + alpha * alpha - 2.0 * math.sqrt(4.0 + alpha * alpha)) * L * H


def check_ratio_point(case, alpha, L, H, label, total, bound, warnings,
                      ratio_cap) -> list[str]:
    where = f"{case} alpha={alpha} L={L:.4g} H={H:.4g}"
    problems = []
    ident = identity_energy(case, alpha, L, H)
    if not total <= ident * (1.0 + 1e-6):
        problems.append(f"{where}: best energy {total!r} exceeds the identity's {ident!r}")
    if label == "identity" and abs(total - ident) > 1e-6 * ident:
        problems.append(f"{where}: identity energy {total!r} != closed form {ident!r}")
    ratio = total / bound
    if not 1.0 <= ratio <= ratio_cap:
        problems.append(f"{where}: total/bound {ratio!r} outside [1, {ratio_cap}]")
    if warnings:
        problems.append(f"{where}: quadrature warnings {list(warnings)}")
    return problems


def check_tight(where: str, total: float, tight_total: float,
                rtol: float = 1e-9) -> list[str]:
    err = abs(total - tight_total) / abs(tight_total)
    if not err <= rtol:
        return [f"{where}: energy {total!r} vs tighter quadrature {tight_total!r} "
                f"(relative {err:.2e} > {rtol:g})"]
    return []


# ---------------------------------------------------------------------------
# minimize
# ---------------------------------------------------------------------------


def check_trace(name: str, trace) -> list[str]:
    steps = np.diff(np.asarray(trace, dtype=float))
    if np.any(steps > 0.0):
        k = int(np.argmax(steps))
        return [f"{name}: energy trace increases at step {k + 1} by {steps[k]:.3e}"]
    return []


def check_sandwich(final: float, seed_energy: float, lower: float) -> list[str]:
    if not final <= seed_energy + 1e-12:
        return [f"final energy {final!r} above the construction seed's {seed_energy!r}"]
    if not final >= lower:
        return [f"final energy {final!r} below bound/C = {lower!r}"]
    return []


def fd_gradient_error(energy_fn, grad: np.ndarray, values: np.ndarray,
                      nodes, h: float = 1e-7) -> float:
    """Worst relative mismatch between ``grad`` and central differences of
    ``energy_fn(values)`` over both components of the given nodes.

    Entries below 1% of the largest gradient entry are measured against
    that 1%: their central differences carry the rounding of the whole
    energy sum (about 4e-11 at 96x96), which is no fault of the gradient."""
    floor = 1e-2 * float(np.max(np.abs(grad)))
    worst = 0.0
    for i in nodes:
        for c in range(2):
            vp, vm = values.copy(), values.copy()
            vp[i, c] += h
            vm[i, c] -= h
            fd = (energy_fn(vp) - energy_fn(vm)) / (2.0 * h)
            worst = max(worst, abs(fd - grad[i, c]) / max(abs(fd), floor))
    return worst


def interior_edges(tris: np.ndarray):
    """Pairs of triangles sharing an edge, and the edge's node pair."""
    ntri = len(tris)
    e = np.concatenate([tris[:, [0, 1]], tris[:, [1, 2]], tris[:, [2, 0]]])
    e = np.sort(e, axis=1)
    owner = np.tile(np.arange(ntri), 3)
    order = np.lexsort((e[:, 1], e[:, 0]))
    e, owner = e[order], owner[order]
    shared = np.flatnonzero(np.all(e[1:] == e[:-1], axis=1))
    return owner[shared], owner[shared + 1], e[shared]


def recompute_energy(nodes: np.ndarray, tris: np.ndarray, values: np.ndarray,
                     spec: WellSpec, eps: float) -> float:
    """P1 energy with the exact jump variation, from the nodal field alone:
    per-triangle gradients from the vertex positions, the well distance by
    the scalar ``dist_to_wells`` and an edge list built here."""
    P, U = nodes[tris], values[tris]
    dP = np.stack([P[:, 1] - P[:, 0], P[:, 2] - P[:, 0]], axis=2)
    dU = np.stack([U[:, 1] - U[:, 0], U[:, 2] - U[:, 0]], axis=2)
    F = dU @ np.linalg.inv(dP)
    area = 0.5 * np.abs(np.linalg.det(dP))
    elastic = math.fsum(a * dist_to_wells(Ft, spec).distance ** 2
                        for a, Ft in zip(area, F))
    ta, tb, edge = interior_edges(tris)
    length = np.linalg.norm(nodes[edge[:, 1]] - nodes[edge[:, 0]], axis=1)
    J = F[ta] - F[tb]
    tv = math.fsum(length * np.sqrt(np.einsum("eij,eij->e", J, J)))
    return elastic + eps * tv


def check_recomputed(name: str, reported: float, recomputed: float,
                     rtol: float = 1e-10) -> list[str]:
    err = abs(reported - recomputed) / abs(recomputed)
    if not err <= rtol:
        return [f"{name}: reported final energy {reported!r} vs recomputed "
                f"{recomputed!r} (relative {err:.2e} > {rtol:g})"]
    return []


# ---------------------------------------------------------------------------
# construct_check
# ---------------------------------------------------------------------------


def check_coverage(name: str, report, tol: float = 1e-10) -> list[str]:
    worst = max(report.area_residual, report.continuity_max, report.boundary_max)
    if report.failures or not worst < tol:
        return [f"{name}: coverage residual {worst:.3e} (failures {report.failures})"]
    return []


def check_boundary_identity(name: str, pts, u, tol: float = 1e-12) -> list[str]:
    dev = float(np.max(np.abs(u - pts)))
    if not dev <= tol:
        return [f"{name}: boundary values deviate from the identity by {dev:.3e}"]
    return []


def cell_ids(def_, pts: np.ndarray) -> np.ndarray:
    """(part, group, instance) of the cell holding each point, resolved in
    build order like the program's own evaluation; -1 where none holds it."""
    tol = 1e-11 * max(def_.domain.width, def_.domain.height)
    ids = np.full((len(pts), 3), -1, dtype=np.int64)
    for ip, part in enumerate(def_.parts):
        Q, b, _, _ = part.folded()
        for ig, g in enumerate(part.groups):
            rem = np.flatnonzero((ids[:, 0] < 0) & part.support.contains(pts, tol))
            if rem.size == 0:
                continue
            q = pts[rem] @ Q.T + b
            xl = q[:, 0] - g.x0
            kf = (np.floor((q[:, 1] - g.y0) / g.dy).astype(np.int64)
                  if g.count > 1 else np.zeros(rem.size, dtype=np.int64))
            for delta in (-1, 0, 1):
                k = kf + delta
                free = ids[rem, 0] < 0
                ok = (free & (k >= 0) & (k < g.count)
                      & g.proto.contains(xl, q[:, 1] - (g.y0 + k * g.dy), tol))
                ids[rem[ok]] = np.column_stack([
                    np.full(ok.sum(), ip), np.full(ok.sum(), ig), k[ok]])
    return ids


def stencil(pts: np.ndarray, h: float) -> np.ndarray:
    """Points, then their +-h x and +-h y neighbours: shape (5 n, 2)."""
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    return np.concatenate([pts, pts + ex, pts - ex, pts + ey, pts - ey])


def check_gradient_fd(name: str, def_, pts, u, du, h: float,
                      tol: float = 1e-6) -> list[str]:
    """Evaluated gradients against central differences of evaluated values,
    on the points of ``stencil(pts, h)`` whose five points share one cell
    (at least a quarter of them, so the check cannot pass vacuously)."""
    n = len(pts)
    ids = cell_ids(def_, stencil(pts, h)).reshape(5, n, 3)
    same = np.all(ids == ids[0], axis=(0, 2)) & (ids[0, :, 0] >= 0)
    if same.sum() < n // 4:
        return [f"{name}: only {int(same.sum())} stencils inside one cell"]
    uu = u.reshape(5, n, 2)
    fd = np.stack([(uu[1] - uu[2]), (uu[3] - uu[4])], axis=2) / (2.0 * h)
    err = float(np.max(np.abs(fd[same] - du[:n][same])))
    if not err <= tol:
        return [f"{name}: gradient vs central differences {err:.3e} > {tol:g}"]
    return []


def check_svg(path) -> list[str]:
    try:
        root = None
        for _, elem in ET.iterparse(path, events=("end",)):
            root = elem
            elem.clear()
    except ET.ParseError as exc:
        return [f"{path}: malformed SVG ({exc})"]
    if root is None or not root.tag.endswith("svg"):
        return [f"{path}: root element is not <svg>"]
    return []


K2_LABELS = {"A", "HL", "BR"}
K1_LABELS = {"A", "BR", "HL", "VB1", "VB2", "VL"}


def check_phase_csv(path, case: str, alpha: float) -> list[str]:
    """Label set per case; for k1 also the austenite containment
    ``{L/eps < 1/alpha} u {H/eps < 1/alpha}`` and its far-edge boundary
    within one grid cell."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return [f"{path}: no rows"]
    logl = sorted({float(r["log10_L_over_eps"]) for r in rows})
    logh = sorted({float(r["log10_H_over_eps"]) for r in rows})
    if len(rows) != len(logl) * len(logh):
        return [f"{path}: {len(rows)} rows for a {len(logl)}x{len(logh)} grid"]
    grid = {(float(r["log10_L_over_eps"]), float(r["log10_H_over_eps"])): r["regime"]
            for r in rows}
    labels = set(grid.values())
    want = K1_LABELS if case == CASE_K1 else K2_LABELS
    if labels != want:
        return [f"{path}: regime labels {sorted(labels)}, expected {sorted(want)}"]
    if case != CASE_K1:
        return []
    edge = math.log10(1.0 / alpha)
    problems = []
    outside = [(ll, lh) for (ll, lh), r in grid.items()
               if (ll < edge or lh < edge) and r != "A"]
    if outside:
        problems.append(f"{path}: {len(outside)} non-austenite points in the "
                        f"austenite region, e.g. {outside[0]}")
    step = logl[1] - logl[0]
    top = next((ll for ll in logl if grid[(ll, logh[-1])] != "A"), None)
    right = next((lh for lh in logh if grid[(logl[-1], lh)] != "A"), None)
    if (top is None or right is None or abs(top - edge) > step + 1e-12
            or abs(right - edge) > step + 1e-12):
        problems.append(f"{path}: austenite boundary at L {top}, H {right}, "
                        f"expected {edge} within one cell")
    return problems


def check_validate_output(rc: int, text: str) -> list[str]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    bad = [ln for ln in lines if not ln.startswith("PASS")]
    if rc != 0 or not lines or bad:
        return [f"validate exit code {rc}, failing lines {bad[:3]}"]
    return []
