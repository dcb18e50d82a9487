"""Well sets, SO(2)-orbit distances and rank-one connection analysis.

The energy density is ``dist^2(F, K)`` with ``K = SO(2)A u SO(2)B`` built
from one of two matrix pairs, selected by a case tag:

* case ``k1``: simple shears ``A = [[1,-a],[0,1]]``, ``B = [[1,a],[0,1]]``
  (equal determinant, two rank-one connections between the wells);
* case ``k2``: uniaxial stretches ``A = diag(1, 1-a)``, ``B = diag(1, 1+a)``
  (different determinant, a single degenerate rank-one connection).

All distances are Frobenius.  The distance of F to one rotated well
``SO(2)G`` has the closed form

    min_Q |F - Q G|^2 = |F|^2 + |G|^2 - 2 sqrt((M11+M22)^2 + (M21-M12)^2),

with ``M = F G^T``; the minimiser is the rotation by ``atan2(M21-M12,
M11+M22)``.  A dense angle-scan oracle is provided so the closed form can be
cross-checked independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

__all__ = [
    "CASE_K1",
    "CASE_K2",
    "Z_SWAP",
    "WellSpec",
    "OrbitDistance",
    "WellDistanceResult",
    "mat2",
    "rotation",
    "rotation_ra",
    "well_matrices",
    "dist_to_rotated_well",
    "angle_scan_distance",
    "dist_to_wells",
    "rank_one_connections",
    "RankOneCountError",
    "interface_degeneracy_gap",
]

CASE_K1 = "k1"
CASE_K2 = "k2"
_CASES = (CASE_K1, CASE_K2)

#: Coordinate swap (x, y) -> (y, x); an improper rotation used to relate the
#: horizontal and vertical branching patterns.
Z_SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])


def mat2(a11: float, a12: float, a21: float, a22: float) -> np.ndarray:
    """Build a 2x2 matrix, rejecting non-finite entries."""
    m = np.array([[a11, a12], [a21, a22]], dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def rotation(phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def rotation_ra(alpha: float) -> np.ndarray:
    """The rotation ``(1+a^2)^{-1/2} [[1,-a],[a,1]]``.

    It realigns the swap-conjugated shear well with the original one:
    ``|R_a Z A Z - A| <= a^2`` for the case-k1 matrix A and all |a| < 1.
    """
    f = 1.0 / math.sqrt(1.0 + alpha * alpha)
    return f * np.array([[1.0, -alpha], [alpha, 1.0]])


@dataclass(frozen=True)
class WellSpec:
    """Which well pair (case ``k1`` or ``k2``) together with the strain a."""

    case: str
    alpha: float

    def __post_init__(self):
        if self.case not in _CASES:
            raise ValueError(f"case must be one of {_CASES}, got {self.case!r}")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    def theory_notes(self) -> list[str]:
        """Caveats to surface in reports; the library itself accepts all of (0,1)."""
        notes = []
        if self.case == CASE_K2 and self.alpha >= 0.5:
            notes.append(
                "case k2 with alpha >= 1/2: the matching lower bound is only "
                "established for alpha < 1/2"
            )
        return notes


@lru_cache(maxsize=256)
def well_matrices(spec: WellSpec) -> tuple[np.ndarray, np.ndarray]:
    """The pair (A, B) of well matrices for the given case, memoized per spec
    and read-only: copy before changing an entry."""
    a = spec.alpha
    if spec.case == CASE_K1:
        pair = mat2(1.0, -a, 0.0, 1.0), mat2(1.0, a, 0.0, 1.0)
    else:
        pair = mat2(1.0, 0.0, 0.0, 1.0 - a), mat2(1.0, 0.0, 0.0, 1.0 + a)
    for m in pair:
        m.flags.writeable = False
    return pair


@lru_cache(maxsize=256)
def _squared_norms(spec: WellSpec) -> tuple:
    """``|A|^2`` and ``|B|^2`` of :func:`well_matrices`, memoized per spec."""
    return tuple(np.sum(G * G) for G in well_matrices(spec))


class OrbitDistance(NamedTuple):
    distance: float
    angle: float
    degenerate: bool


class WellDistanceResult(NamedTuple):
    distance: float
    nearest_well: str  # "A" or "B"
    optimal_angle: float
    degenerate: bool


def dist_to_rotated_well(F: np.ndarray, G: np.ndarray) -> OrbitDistance:
    """Closed-form Frobenius distance of F to the orbit SO(2)G.

    When the trace vector ``(M11+M22, M21-M12)`` vanishes every rotation is
    equally close; the angle is then reported as 0 and flagged degenerate.
    """
    return _orbit_distance(F, G, np.sum(F * F), np.sum(G * G))


def _orbit_distance(F, G, f2, g2) -> OrbitDistance:
    """:func:`dist_to_rotated_well` given ``f2 = |F|^2`` and ``g2 = |G|^2``."""
    M = F @ G.T
    p = M[0, 0] + M[1, 1]
    q = M[1, 0] - M[0, 1]
    r = math.hypot(p, q)
    d2 = float(f2 + g2) - 2.0 * r
    d2 = max(d2, 0.0)
    if r == 0.0:
        return OrbitDistance(math.sqrt(d2), 0.0, True)
    return OrbitDistance(math.sqrt(d2), math.atan2(q, p), False)


@lru_cache(maxsize=8)
def _angle_grid(samples: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan angles and their cosines and sines, read-only and shared by
    every call with the same ``samples``."""
    phis = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    grid = (phis, np.cos(phis), np.sin(phis))
    for a in grid:
        a.flags.writeable = False
    return grid


def angle_scan_distance(F: np.ndarray, G: np.ndarray, samples: int = 4096,
                        refine: bool = True) -> OrbitDistance:
    """Oracle for :func:`dist_to_rotated_well`: dense scan over the rotation
    angle followed by golden-section refinement of the best bracket."""
    phis, c, s = _angle_grid(samples)
    # |F - Q(phi) G|^2 expanded; only the cross term depends on phi.
    M = F @ G.T
    p = M[0, 0] + M[1, 1]
    q = M[1, 0] - M[0, 1]
    cross = c * p + s * q
    const = float(np.sum(F * F) + np.sum(G * G))
    k = int(np.argmax(cross))

    def d2(phi: float) -> float:
        return const - 2.0 * (math.cos(phi) * p + math.sin(phi) * q)

    lo = phis[k] - 2.0 * math.pi / samples
    hi = phis[k] + 2.0 * math.pi / samples
    best = phis[k]
    if refine:
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        x1 = b - invphi * (b - a)
        x2 = a + invphi * (b - a)
        f1, f2 = d2(x1), d2(x2)
        for _ in range(200):
            if f1 < f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - invphi * (b - a)
                f1 = d2(x1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + invphi * (b - a)
                f2 = d2(x2)
            if b - a < 1e-15:
                break
        best = 0.5 * (a + b)
    val = max(d2(best), 0.0)
    angle = math.atan2(math.sin(best), math.cos(best))
    return OrbitDistance(math.sqrt(val), angle, False)


def dist_to_wells(F: np.ndarray, spec: WellSpec) -> WellDistanceResult:
    """Distance of F to the union of both well orbits; ties resolve to well A.

    The tie test allows for the rounding noise of the closed form, so exact
    mathematical ties (e.g. the identity in case k2) report well A.
    """
    A, B = well_matrices(spec)
    a2, b2 = _squared_norms(spec)
    f2 = np.sum(F * F)
    da = _orbit_distance(F, A, f2, a2)
    db = _orbit_distance(F, B, f2, b2)
    scale = float(f2 + max(a2, b2))
    tie = abs(da.distance ** 2 - db.distance ** 2) <= 64.0 * np.finfo(float).eps * scale
    if tie or da.distance <= db.distance:
        return WellDistanceResult(da.distance, "A", da.angle, da.degenerate)
    return WellDistanceResult(db.distance, "B", db.angle, db.degenerate)


class RankOneCountError(RuntimeError):
    """Root count of det(A - Q(phi) B) disagrees with the expected one."""


def _det2(m: np.ndarray) -> float:
    return float(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def rank_one_connections(spec: WellSpec) -> list[float]:
    """All angles phi in [0, 2pi) with det(A - Q(phi)B) = 0, in closed form.

    For 2x2 matrices ``det(A - Q(phi) B) = D - (p cos phi + q sin phi)`` with
    ``D = det A + det B`` and ``M = B adj(A)``, ``p = M11 + M22``,
    ``q = M12 - M21``.  With ``phi0 = atan2(q, p)`` and ``r = hypot(p, q)``
    the roots are ``phi0 +- acos(D / r)``: two if ``|D| < r``, one tangential
    root if ``|D| = r`` (case k2, exactly) and none if ``|D| > r``.  Raises
    :class:`RankOneCountError` unless case k1 has two roots and case k2 one.
    """
    A, B = well_matrices(spec)
    M = B @ np.array([[A[1, 1], -A[0, 1]], [-A[1, 0], A[0, 0]]])
    p, q = float(M[0, 0] + M[1, 1]), float(M[0, 1] - M[1, 0])
    D = _det2(A) + _det2(B)
    # r^2 - D^2, grouped so that it is exact when p == D (both cases here).
    disc = q * q + (p - D) * (p + D)
    roots: list[float] = []
    if disc >= 0.0:
        phi0 = math.atan2(q, p)
        half = math.atan2(math.sqrt(disc), D)  # acos(D / r), well conditioned
        two_pi = 2.0 * math.pi
        wrapped = ((phi0 + s * half) % two_pi for s in (-1.0, 1.0))
        roots = sorted({0.0 if min(w, two_pi - w) < 1e-12 else w for w in wrapped})
    expected = 2 if spec.case == CASE_K1 else 1
    if len(roots) != expected:
        raise RankOneCountError(
            f"case {spec.case}, alpha={spec.alpha}: found {len(roots)} "
            f"rank-one connection angles, expected {expected}: {roots}"
        )
    return roots


def interface_degeneracy_gap(spec: WellSpec, v: np.ndarray) -> float:
    """``|A v| - |B v|`` for a unit vector v.

    Near v = e1 this gap vanishes linearly in case k1 but quadratically in
    case k2; the degeneracy is what makes the k2 branching cheaper.
    """
    v = np.asarray(v, dtype=float)
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-9:
        raise ValueError("v must be a unit vector")
    A, B = well_matrices(spec)
    return float(np.linalg.norm(A @ v) - np.linalg.norm(B @ v))
