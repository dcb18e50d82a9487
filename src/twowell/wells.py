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
        pair = np.array([[1.0, -a], [0.0, 1.0]]), np.array([[1.0, a], [0.0, 1.0]])
    else:
        pair = np.array([[1.0, 0.0], [0.0, 1.0 - a]]), np.array([[1.0, 0.0], [0.0, 1.0 + a]])
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


def _stack(F) -> tuple[np.ndarray, tuple]:
    """F as a C-contiguous (n, 2, 2) float stack, and the batch shape that
    :func:`_unstack` restores (``()`` for a single matrix)."""
    F = np.asarray(F, dtype=float)
    if F.shape[-2:] != (2, 2):
        raise ValueError(f"expected a 2x2 matrix or a stack (..., 2, 2), got shape {F.shape}")
    return np.ascontiguousarray(F).reshape(-1, 2, 2), F.shape[:-2]


def _unstack(cls, shape: tuple, *cols: np.ndarray):
    """``cls`` of Python scalars for a single matrix, else of arrays of the
    batch shape."""
    if shape == ():
        return cls(*(c.item() for c in cols))
    return cls(*(c.reshape(shape) for c in cols))


def _trace_vector(F: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(M11+M22, M21-M12)`` with ``M = F G^T``, per matrix of the stack F.

    The stacked ``@`` multiplies each 2x2 pair as a single ``F @ G.T`` does,
    bit for bit, so a matrix gives the same bits alone and in any stack."""
    M = F @ G.T
    return M[:, 0, 0] + M[:, 1, 1], M[:, 1, 0] - M[:, 0, 1]


def dist_to_rotated_well(F: np.ndarray, G: np.ndarray) -> OrbitDistance:
    """Closed-form Frobenius distance of F to the orbit SO(2)G.

    F is one matrix (the fields are Python scalars) or a stack (..., 2, 2)
    (the fields are arrays of the batch shape); G is one matrix.  When the
    trace vector ``(M11+M22, M21-M12)`` vanishes every rotation is equally
    close; the angle is then reported as 0 and flagged degenerate.
    """
    F, shape = _stack(F)
    f2 = np.sum(F * F, axis=(1, 2))
    return _unstack(OrbitDistance, shape, *_orbit_distance(F, G, f2, np.sum(G * G)))


def _orbit_distance(F, G, f2, g2) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distance, angle and degenerate flag of each matrix of the (n, 2, 2)
    stack F, given ``f2 = |F|^2`` per matrix and ``g2 = |G|^2``."""
    p, q = _trace_vector(F, G)
    r = np.hypot(p, q)
    d2 = np.maximum((f2 + g2) - 2.0 * r, 0.0)
    degenerate = r == 0.0
    return np.sqrt(d2), np.where(degenerate, 0.0, np.arctan2(q, p)), degenerate


# Rotation angles of the angle-scan oracle's dense scan.
_SCAN_SAMPLES = 4096
# Matrices scanned per array pass: a (64, 4096) float array is 2 MB.
_SCAN_BLOCK = 64


@lru_cache(maxsize=1)
def _angle_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The scan angles and their cosines and sines, read-only and shared by
    every call."""
    phis = np.linspace(0.0, 2.0 * math.pi, _SCAN_SAMPLES, endpoint=False)
    grid = (phis, np.cos(phis), np.sin(phis))
    for a in grid:
        a.flags.writeable = False
    return grid


def angle_scan_distance(F: np.ndarray, G: np.ndarray) -> OrbitDistance:
    """Oracle for :func:`dist_to_rotated_well`: dense scan over the rotation
    angle followed by golden-section refinement of the best bracket.

    Takes and returns what :func:`dist_to_rotated_well` does, with the
    degenerate flag always False.  Each matrix of a stack refines its own
    bracket and stops once it is narrower than 1e-15, so it gets the same
    bits alone and in any stack."""
    phis, c, s = _angle_grid()
    F, shape = _stack(F)
    # |F - Q(phi) G|^2 expanded; only the cross term depends on phi.
    p, q = _trace_vector(F, G)
    const = np.sum(F * F, axis=(1, 2)) + np.sum(G * G)
    k = np.empty(len(F), dtype=np.intp)
    for i in range(0, len(F), _SCAN_BLOCK):
        cross = c * p[i:i + _SCAN_BLOCK, None]
        cross += s * q[i:i + _SCAN_BLOCK, None]
        k[i:i + _SCAN_BLOCK] = np.argmax(cross, axis=1)

    def d2(phi: np.ndarray) -> np.ndarray:
        return const - 2.0 * (np.cos(phi) * p + np.sin(phi) * q)

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a = phis[k] - 2.0 * math.pi / _SCAN_SAMPLES
    b = phis[k] + 2.0 * math.pi / _SCAN_SAMPLES
    x1 = b - invphi * (b - a)
    x2 = a + invphi * (b - a)
    f1, f2 = d2(x1), d2(x2)
    live = np.ones(len(F), dtype=bool)
    for _ in range(200):
        # Where f1 < f2 the bracket keeps [a, x2] and probes a new x1, else
        # it keeps [x1, b] and probes a new x2.
        left = f1 < f2
        na, nb = np.where(left, a, x1), np.where(left, x2, b)
        x = np.where(left, nb - invphi * (nb - na), na + invphi * (nb - na))
        fx = d2(x)
        step = (na, nb, np.where(left, x, x2), np.where(left, fx, f2),
                np.where(left, x1, x), np.where(left, f1, fx))
        a, b, x1, f1, x2, f2 = (np.where(live, new, old)
                                for new, old in zip(step, (a, b, x1, f1, x2, f2)))
        live &= ~(b - a < 1e-15)
        if not live.any():
            break
    best = 0.5 * (a + b)
    val = np.maximum(d2(best), 0.0)
    angle = np.arctan2(np.sin(best), np.cos(best))
    return _unstack(OrbitDistance, shape, np.sqrt(val), angle, np.zeros(len(F), dtype=bool))


def dist_to_wells(F: np.ndarray, spec: WellSpec) -> WellDistanceResult:
    """Distance of F to the union of both well orbits; ties resolve to well A.

    F is one matrix or a stack (..., 2, 2), as for
    :func:`dist_to_rotated_well`.  The tie test allows for the rounding
    noise of the closed form, so exact mathematical ties (e.g. the identity
    in case k2) report well A.
    """
    A, B = well_matrices(spec)
    a2, b2 = _squared_norms(spec)
    F, shape = _stack(F)
    f2 = np.sum(F * F, axis=(1, 2))
    da, angle_a, deg_a = _orbit_distance(F, A, f2, a2)
    db, angle_b, deg_b = _orbit_distance(F, B, f2, b2)
    scale = f2 + max(a2, b2)
    tie = np.abs(da ** 2 - db ** 2) <= 64.0 * np.finfo(float).eps * scale
    on_a = tie | (da <= db)
    return _unstack(WellDistanceResult, shape, np.where(on_a, da, db),
                    np.where(on_a, "A", "B"), np.where(on_a, angle_a, angle_b),
                    np.where(on_a, deg_a, deg_b))


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
