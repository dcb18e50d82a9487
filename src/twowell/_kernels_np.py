"""NumPy reference implementation of the hot kernels.

The quadrature calls :func:`dist2_two_wells` through :mod:`twowell.kernels`,
which may pick its Cython twin in ``_kernels.pyx``; the minimizer calls
:func:`nearest_well` and :func:`nearest_well_grad` on entry arrays, with
its own output and scratch buffers, so a pass allocates nothing.

Convention: gradients are batches of shape (n, 2, 2), or their entries
``(f00, f01, f10, f11)``; ``which`` is 0 (False) where well A is (weakly)
nearest, so ties resolve to A.  4-term sums are added as
``(t00 + t10) + (t01 + t11)``, the order of ``np.einsum`` on a 2x2 block.
A product by a well entry that is exactly 0 is left out of its sum and one
by exactly +-1 becomes the entry itself (an addition turns into a
subtraction); every sum keeps that order, so the value is the dense form's
(x + (+-0) = x and x * 1 = x) up to the sign of a zero.
"""

from __future__ import annotations

import numpy as np


def kernel_work(n: int):
    """Scratch for :func:`nearest_well` and :func:`nearest_well_grad` on
    ``n`` points: six float rows and one mask."""
    return np.empty((6, n)), np.empty(n, dtype=bool)


def _entries(F: np.ndarray):
    return np.asarray(F, dtype=float).reshape(-1, 4).T.copy()


def frobenius2(f, out, tmp):
    """Squared Frobenius norm of the matrices with entries ``f``, written
    into ``out`` with the two scratch arrays ``tmp``."""
    f00, f01, f10, f11 = f
    t, u = tmp
    np.multiply(f00, f00, out=out)
    np.add(out, np.multiply(f10, f10, out=t), out=out)
    np.multiply(f01, f01, out=t)
    np.add(t, np.multiply(f11, f11, out=u), out=t)
    return np.add(out, t, out=out)


def _scaled(f, c: float, buf):
    """``f * c`` as ``(sign, array)``: None for c = 0, the entry itself for
    c = +-1, else the product written into ``buf``."""
    if c == 0.0:
        return None
    if abs(c) == 1.0:
        return c, f
    return 1.0, np.multiply(f, c, out=buf)


def _plus(x, y, buf):
    """The sum of two signed terms of :func:`_scaled` (None is 0)."""
    if x is None or y is None:
        return y if x is None else x
    (sx, a), (sy, b) = x, y
    if sx == sy:
        return sx, np.add(a, b, out=buf)
    return 1.0, np.subtract(a, b, out=buf) if sx > 0 else np.subtract(b, a, out=buf)


def _pair(f0, c0, f1, c1, buf, spare):
    x = _scaled(f0, c0, buf)
    return _plus(x, _scaled(f1, c1, spare if x is not None and x[1] is buf else buf), buf)


def _combine(f, c, out, t0, t1):
    """``out = (f0 c0 + f1 c1) + (f2 c2 + f3 c3)`` for entry arrays ``f``
    and float coefficients ``c``, with the products by 0 and +-1 left out."""
    x = _pair(f[0], c[0], f[1], c[1], out, t0)
    y = _pair(f[2], c[2], f[3], c[3], t0, t1)
    s = _plus(x, y, out)
    if s is None:
        out.fill(0.0)
    elif s[0] < 0:
        np.negative(s[1], out=out)
    elif s[1] is not out:
        np.copyto(out, s[1])
    return out


def _orbit_terms(f, f2, G: np.ndarray, pqr, d2, t0, t1):
    """``(p, q, r)`` of F against the orbit SO(2)G into the rows of ``pqr``,
    and d2 = |F|^2 + |G|^2 - 2r (clipped at 0) into ``d2``: p = F:G, q = F:JG
    with J the rotation by pi/2, r = |(p, q)|.  ``f2`` is |F|^2, read first;
    ``t0`` and ``t1`` are scratch.  A non-finite F gives d2 = NaN through
    ``f2``."""
    f00, f01, f10, f11 = f
    (g00, g01), (g10, g11) = G.tolist()
    p, q, r = pqr
    np.add(f2, float(np.sum(G * G)), out=d2)
    _combine((f00, f10, f01, f11), (g00, g10, g01, g11), p, t0, t1)
    # JG = [[-g10, -g11], [g00, g01]]
    _combine((f00, f10, f01, f11), (-g10, g00, -g11, g01), q, t0, t1)
    np.hypot(p, q, out=r)
    np.subtract(d2, np.multiply(r, 2.0, out=t0), out=d2)
    return np.maximum(d2, 0.0, out=d2)


def nearest_well(f, A: np.ndarray, B: np.ndarray, out=None, work=None):
    """``(d2, which, pqr)``: squared distance to SO(2)A u SO(2)B, the nearest
    well (bool, True for B) and that well's ``(p, q, r)`` as a (3, n) array.
    ``out`` is ``(which, pqr)`` and ``work`` a :func:`kernel_work`, both
    allocated when not given; ``d2`` is a row of ``work``."""
    n = np.shape(f[0])[0]
    which, pqr = (np.empty(n, dtype=bool), np.empty((3, n))) if out is None else out
    w, _ = kernel_work(n) if work is None else work
    f2, d2, other, d2b = w[0], w[1], w[2:5], w[5]
    frobenius2(f, f2, w[1:3])
    _orbit_terms(f, f2, A, pqr, d2, w[2], w[3])
    _orbit_terms(f, f2, B, other, d2b, w[0], w[4])  # the last read of f2
    np.less(d2b, d2, out=which)
    np.copyto(d2, d2b, where=which)
    np.copyto(pqr, other, where=which)
    return d2, which, pqr


def nearest_well_grad(f, which, pqr, A: np.ndarray, B: np.ndarray, out=None, work=None):
    """Entries of the gradient in F of the squared well distance as a (4, n)
    array, from the ``which`` and ``pqr`` of :func:`nearest_well`:
    ``2 F - (c1 G + c2 JG)`` on the active well G (A at a tie), with
    ``(c1, c2) = (2p/r, 2q/r)``, or the identity-rotation subgradient
    ``2 (F - G)`` where r = 0.  ``out`` and ``work`` (a :func:`kernel_work`)
    are allocated when not given.

    A well entry shared by A and B is a constant of the formula; one that
    differs is taken per point, multiplying by A's entry everywhere and by
    B's where ``which``.  A non-finite F has r = inf or NaN; adding r - r
    (0, or NaN) to c1 and c2 makes its whole gradient NaN, so the products
    left out cannot hide a NaN the dense form has.
    """
    n = np.shape(f[0])[0]
    out = np.empty((4, n)) if out is None else out
    w, ok = kernel_work(n) if work is None else work
    p, q, r = pqr
    c1, c2, t0, t1, t2, _ = w
    np.greater(r, 0.0, out=ok)
    c2.fill(0.0)
    np.divide(2.0, r, out=c2, where=ok)  # 2/r, 0 where r = 0
    np.multiply(c2, p, out=c1)
    np.multiply(c2, q, out=c2)
    np.copyto(c1, 2.0, where=np.logical_not(ok, out=ok))
    np.subtract(r, r, out=t0)
    c1 += t0
    c2 += t0

    a, b = A.ravel().tolist(), B.ravel().tolist()

    def times(c, k, buf):
        """``c`` times the active well's entry ``k`` as a signed term."""
        if a[k] == b[k]:
            return _scaled(c, a[k], buf)
        np.multiply(c, a[k], out=buf)
        return 1.0, np.multiply(c, b[k], out=buf, where=which)

    f00, f01, f10, f11 = f
    # (entry, c1 times G entry, sign, c2 times G entry), G = [[g0, g1], [g2, g3]]:
    # 2 f00 - (c1 g00 - c2 g10), 2 f01 - (c1 g01 - c2 g11),
    # 2 f10 - (c1 g10 + c2 g00), 2 f11 - (c1 g11 + c2 g01)
    for dst, fk, k1, sign, k2 in ((out[0], f00, 0, -1.0, 2), (out[1], f01, 1, -1.0, 3),
                                  (out[2], f10, 2, 1.0, 0), (out[3], f11, 3, 1.0, 1)):
        x = times(c1, k1, t0)
        y = times(c2, k2, t1)
        if y is not None:
            y = (sign * y[0], y[1])
        s = _plus(x, y, t2)
        np.multiply(fk, 2.0, out=dst)
        if s is not None:
            (np.subtract if s[0] > 0 else np.add)(dst, s[1], out=dst)
    return out


def dist2_two_wells(F: np.ndarray, A: np.ndarray, B: np.ndarray):
    """Squared Frobenius distance of each F to SO(2)A u SO(2)B, and
    ``which`` (uint8): 0 for well A, 1 for well B."""
    d2, which, _ = nearest_well(_entries(F), A, B)
    return d2, which.view(np.uint8)


def dist2_two_wells_grad(F: np.ndarray, A: np.ndarray, B: np.ndarray):
    """Squared well distance and its gradient with respect to F, as
    :func:`nearest_well_grad` describes; the gradient has shape (n, 2, 2)."""
    f = _entries(F)
    work = kernel_work(f.shape[1])
    d2, *state = nearest_well(f, A, B, work=work)
    d2 = d2.copy()
    grad = nearest_well_grad(f, *state, A, B, work=work)
    return d2, np.ascontiguousarray(grad.T).reshape(-1, 2, 2)
