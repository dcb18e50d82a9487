"""NumPy reference implementation of the hot kernels.

These are the inner loops of both the quadrature (squared well distance at
every Gauss point) and the discrete minimizer (per-triangle energy density
and its gradient).  A Cython twin with identical signatures lives in
``_kernels.pyx``; :mod:`twowell.kernels` picks one at import time.

Convention: gradients are batches of shape (n, 2, 2); ``which`` is 0 where
well A is (weakly) nearest, 1 otherwise, so ties resolve to A.
"""

from __future__ import annotations

import numpy as np

_J = np.array([[0.0, -1.0], [1.0, 0.0]])


def _orbit_terms(F: np.ndarray, G: np.ndarray):
    p = np.einsum("nij,ij->n", F, G)
    q = np.einsum("nij,ij->n", F, _J @ G)
    r = np.hypot(p, q)
    f2 = np.einsum("nij,nij->n", F, F)
    d2 = f2 + float(np.sum(G * G)) - 2.0 * r
    np.maximum(d2, 0.0, out=d2)
    return d2, p, q, r


def dist2_two_wells(F: np.ndarray, A: np.ndarray, B: np.ndarray):
    """Squared Frobenius distance of each F to SO(2)A u SO(2)B.

    Returns ``(d2, which)`` with ``which`` 0 for well A, 1 for well B.
    """
    F = np.ascontiguousarray(F, dtype=float).reshape(-1, 2, 2)
    d2a, _, _, _ = _orbit_terms(F, A)
    d2b, _, _, _ = _orbit_terms(F, B)
    which = (d2b < d2a).astype(np.uint8)
    return np.where(which, d2b, d2a), which


def dist2_two_wells_grad(F: np.ndarray, A: np.ndarray, B: np.ndarray):
    """Squared well distance and its gradient with respect to F.

    The active branch (nearest well, optimal rotation) is differentiated;
    at the measure-zero tie the A branch is used.  Where the optimal
    rotation is non-unique (r = 0) the subgradient of the identity-rotation
    branch ``2 (F - G)`` is returned.

    The gradient is ``2 F - (c_G G + c_JG JG)`` with per-point coefficients
    ``(2p/r, 2q/r)``, or ``(2, 0)`` at r = 0, on the active well G; it is
    formed as one (n, 4) x (4, 4) product against the fixed matrices
    A, JA, B and JB.
    """
    F = np.ascontiguousarray(F, dtype=float).reshape(-1, 2, 2)
    d2a, pa, qa, ra = _orbit_terms(F, A)
    d2b, pb, qb, rb = _orbit_terms(F, B)
    which = d2b < d2a
    d2 = np.where(which, d2b, d2a)

    p = np.where(which, pb, pa)
    q = np.where(which, qb, qa)
    r = np.where(which, rb, ra)
    ok = r > 0.0
    inv = np.divide(2.0, r, out=np.zeros_like(r), where=ok)
    coef = np.zeros((len(F), 4))
    col = 2 * which  # column of G: 0 for A, 2 for B; JG follows it
    rows = np.arange(len(F))
    coef[rows, col] = np.where(ok, inv * p, 2.0)
    coef[rows, col + 1] = inv * q
    mats = np.stack([A, _J @ A, B, _J @ B]).reshape(4, 4)
    grad = 2.0 * F
    grad -= (coef @ mats).reshape(-1, 2, 2)
    return d2, grad
