"""NumPy reference implementation of the hot kernels.

The quadrature calls :func:`dist2_two_wells` through :mod:`twowell.kernels`,
which may pick its Cython twin in ``_kernels.pyx``; the minimizer calls
:func:`nearest_well` and :func:`nearest_well_grad` on entry arrays.

Convention: gradients are batches of shape (n, 2, 2), or their entries
``(f00, f01, f10, f11)``; ``which`` is 0 (False) where well A is (weakly)
nearest, so ties resolve to A.  4-term sums are added as
``(t00 + t10) + (t01 + t11)``, the order of ``np.einsum`` on a 2x2 block.
"""

from __future__ import annotations

import numpy as np


def frobenius2(f):
    """Squared Frobenius norm of the matrices with entries ``f``."""
    f00, f01, f10, f11 = f
    return (f00 * f00 + f10 * f10) + (f01 * f01 + f11 * f11)


def _entries(F: np.ndarray):
    return np.asarray(F, dtype=float).reshape(-1, 4).T.copy()


def _orbit_terms(f, f2, G: np.ndarray):
    """``(d2, p, q, r)`` of F against the orbit SO(2)G: p = F:G, q = F:JG
    with J the rotation by pi/2, r = |(p, q)| and d2 = |F|^2 + |G|^2 - 2r
    (clipped at 0).  ``f2`` is |F|^2."""
    f00, f01, f10, f11 = f
    (g00, g01), (g10, g11) = G.tolist()
    p = (f00 * g00 + f10 * g10) + (f01 * g01 + f11 * g11)
    q = (f00 * -g10 + f10 * g00) + (f01 * -g11 + f11 * g01)  # JG = [[-g10, -g11], [g00, g01]]
    r = np.hypot(p, q)
    d2 = f2 + float(np.sum(G * G)) - 2.0 * r
    np.maximum(d2, 0.0, out=d2)
    return d2, p, q, r


def nearest_well(f, A: np.ndarray, B: np.ndarray):
    """``(d2, which, terms)``: squared distance to SO(2)A u SO(2)B, the
    nearest well (bool, True for B) and both wells' ``(p, q, r)``."""
    f2 = frobenius2(f)
    d2a, *terms_a = _orbit_terms(f, f2, A)
    d2b, *terms_b = _orbit_terms(f, f2, B)
    which = d2b < d2a
    return np.where(which, d2b, d2a), which, (terms_a, terms_b)


def nearest_well_grad(f, which, terms, A: np.ndarray, B: np.ndarray):
    """Entries of the gradient in F of the squared well distance, from the
    ``which`` and ``terms`` of :func:`nearest_well`: ``2 F - (c1 G + c2 JG)``
    on the active well G (A at a tie), with ``(c1, c2) = (2p/r, 2q/r)``, or
    the identity-rotation subgradient ``2 (F - G)`` where r = 0."""
    p, q, r = (np.where(which, b, a) for a, b in zip(*terms))
    ok = r > 0.0
    inv = np.divide(2.0, r, out=np.zeros_like(r), where=ok)
    c1 = np.where(ok, inv * p, 2.0)
    c2 = inv * q
    g00, g01, g10, g11 = np.take(np.stack([A.ravel(), B.ravel()], axis=1),
                                 which.view(np.uint8), axis=1)
    f00, f01, f10, f11 = f
    return (2.0 * f00 - (c1 * g00 - c2 * g10), 2.0 * f01 - (c1 * g01 - c2 * g11),
            2.0 * f10 - (c1 * g10 + c2 * g00), 2.0 * f11 - (c1 * g11 + c2 * g01))


def dist2_two_wells(F: np.ndarray, A: np.ndarray, B: np.ndarray):
    """Squared Frobenius distance of each F to SO(2)A u SO(2)B, and
    ``which`` (uint8): 0 for well A, 1 for well B."""
    d2, which, _ = nearest_well(_entries(F), A, B)
    return d2, which.view(np.uint8)


def dist2_two_wells_grad(F: np.ndarray, A: np.ndarray, B: np.ndarray):
    """Squared well distance and its gradient with respect to F, as
    :func:`nearest_well_grad` describes; the gradient has shape (n, 2, 2)."""
    f = _entries(F)
    d2, *state = nearest_well(f, A, B)
    return d2, np.stack(nearest_well_grad(f, *state, A, B), axis=-1).reshape(-1, 2, 2)
