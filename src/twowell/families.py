"""Closed-form displacement families of the cells of a piecewise deformation.

A cell's map is ``u(p) = p + disp(p - anchor)`` in cell-local coordinates;
:mod:`twowell.piecewise` stores the cells and jumps that use these maps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .profiles import step_profile

__all__ = ["AffineDisp", "K2CellPiece", "ScalarProfilePiece"]


class _MapBase:
    """Common handling of the closed-form displacement families.

    A family implements ``disp``, ``grad_entries(ramp, y)`` (the entries
    ``(d1 u1, d2 u1, d1 u2, d2 u2)``, from the ramp values at the local x
    given by ``ramp(x)``, None for pieces that do not bend) and ``key``.
    ``bends`` tells whether the map follows the ramp at all.  ``curved``
    tells whether D^2 u can be nonzero: never where the map does not bend,
    and not on a piece whose D^2 u is a multiple of g'' when the ramp is
    linear.  A map that is not curved has a constant gradient, and the
    quadrature relies on that.  ``grad_reads_y`` tells whether the gradient
    depends on y (not by default), which it then does affinely; the elastic
    term takes such columns by a Gauss rule in y.  ``kinks()`` lists the
    local x inside the cell where the bulk-TV column integrand has a kink
    (none by default): where the derivative of the ramp that |D^2 u| is a
    multiple of changes sign, ell / 2 on the curved scalar-profile pieces
    and two points on the k2 cell's middle piece.  The quadrature splits
    the cell's root panel there.
    For the quadrature's tables, ``entry()`` returns its shape (the class
    and the discrete fields) and its row (the float fields), and
    ``from_row(shape, cols)`` builds a member from an iterator of (m, 1)
    columns, one row per prototype, that evaluates against (m, n) points:
    many prototypes of one shape at once, with the ramp evaluated once per
    column of nodes.  So ``__post_init__`` checks only discrete fields, and
    integer powers of fields use ``np.float_power``, which is libm ``pow``
    for scalars and arrays alike, so both forms give the same bits
    (``np.power`` on arrays may take a vectorized path that rounds
    differently).
    """

    bends = False
    grad_reads_y = False

    @property
    def curved(self) -> bool:
        return self.bends

    def ramp(self, x):
        return None

    def kinks(self) -> tuple[float, ...]:
        return ()

    def grad(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return _pack_grad(np.broadcast(x, y).shape, *self.grad_entries(self.ramp(x), y))

    def hess(self, x, y):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (2, 2, 2))

    def hess_profile(self, x, ramp=None):
        """Coefficients (A, B, R2) with ``|D^2 u|(x, y)^2 = (A + B y)^2 + R2``;
        ``ramp`` is ``ramp(x)`` when the caller has it.

        Every family here is affine in y at second order, which lets the
        surface-energy bulk term integrate the y direction in closed form.
        """
        zero = np.zeros_like(np.asarray(x, dtype=float))
        return zero, zero, zero

    def tag(self) -> str:
        return self.key()[0]


def _pack2(a, b):
    return np.stack([np.broadcast_to(a, np.broadcast(a, b).shape),
                     np.broadcast_to(b, np.broadcast(a, b).shape)], axis=-1)


def _pack_grad(shape, g11, g12, g21, g22):
    out = np.empty(shape + (2, 2))
    out[..., 0, 0] = g11
    out[..., 0, 1] = g12
    out[..., 1, 0] = g21
    out[..., 1, 1] = g22
    return out


@dataclass(frozen=True)
class AffineDisp(_MapBase):
    """Affine displacement ``disp(p) = P p + v0``; covers identity and laminate stripes."""

    p11: float = 0.0
    p12: float = 0.0
    p21: float = 0.0
    p22: float = 0.0
    v1: float = 0.0
    v2: float = 0.0

    def entry(self) -> tuple:
        return (AffineDisp,), (self.p11, self.p12, self.p21, self.p22, self.v1, self.v2)

    @classmethod
    def from_row(cls, shape, cols):
        return cls(*itertools.islice(cols, 6))

    def disp(self, x, y):
        return _pack2(self.p11 * x + self.p12 * y + self.v1,
                      self.p21 * x + self.p22 * y + self.v2)

    def grad_entries(self, ramp, y):
        return self.p11, self.p12, self.p21, self.p22

    def key(self) -> tuple:
        return ("affine", self.p11, self.p12, self.p21, self.p22, self.v1, self.v2)


class _Piece(_MapBase):
    """A piece of a five-piece cell: discrete fields, then (ell, h, alpha)
    and the ramp kind.  Pieces 2 to 4 follow the ramp ``g(x / ell)``."""

    BENT = (2, 3, 4)

    def entry(self) -> tuple:
        return (type(self),) + self._discrete() + (self.kind,), (self.ell, self.h, self.alpha)

    @classmethod
    def from_row(cls, shape, cols):
        return cls(*shape[1:-1], next(cols), next(cols), next(cols), shape[-1])

    @property
    def bends(self) -> bool:
        return self.piece in self.BENT

    def ramp(self, x):
        if not self.bends:
            return None
        return step_profile(self.kind)(np.asarray(x, dtype=float) / self.ell)


@dataclass(frozen=True)
class K2CellPiece(_Piece):
    """One of the five pieces of the stretch-case period-doubling cell.

    The vertical component interpolates between the two stretches; the
    horizontal component cancels the off-diagonal strain to first order
    (``d_y u1 + (1 - alpha) d_x u2 = 0`` on the transition pieces), which is
    what buys the ``h^5 / l^3`` cell energy.
    """

    piece: int
    ell: float
    h: float
    alpha: float
    kind: str = "quintic"

    def __post_init__(self):
        if self.piece not in (1, 2, 3, 4, 5):
            raise ValueError("piece index must be 1..5")
        if self.kind != "quintic":
            # The horizontal component uses ramp derivatives; a linear ramp
            # would violate the vertical boundary traces.
            raise ValueError("stretch-case cells require the quintic ramp")

    def _discrete(self) -> tuple:
        return (self.piece,)

    @property
    def grad_reads_y(self) -> bool:
        # The transition pieces' d_x u1 carries d2 (base - y).
        return self.piece in (2, 4)

    def kinks(self) -> tuple[float, ...]:
        # Piece 3's |D^2 u| is a multiple of |g'''(x / ell)|, and the
        # quintic's g''' = 60 (6 t^2 - 6 t + 1) changes sign at (3 -+ sqrt 3) / 6.
        if self.piece != 3:
            return ()
        return (self.ell * (3.0 - math.sqrt(3.0)) / 6.0,
                self.ell * (3.0 + math.sqrt(3.0)) / 6.0)

    def _mirror(self, g):
        """Sign and base curve ``y = base(x)`` of the transition pieces: piece
        4 is piece 2 reflected, built on the upper curve instead of the lower."""
        if self.piece == 2:
            return 1.0, (self.h / 8.0) * (1.0 + g)
        return -1.0, (7.0 * self.h / 8.0) - (self.h / 8.0) * g

    def disp(self, x, y):
        a, h, ell = self.alpha, self.h, self.ell
        s = a * (1.0 - a)
        y = np.asarray(y, dtype=float)
        if self.piece == 1:
            return _pack2(np.zeros_like(y), a * y)
        if self.piece == 5:
            return _pack2(np.zeros_like(y), a * y - a * h)
        g, d1, _, _ = self.ramp(x)
        if self.piece == 3:
            return _pack2(-s * (h * h / (16.0 * ell)) * d1 + np.zeros_like(y),
                          a * y - a * h / 2.0)
        sig, base = self._mirror(g)
        ramp = 1.0 + g if self.piece == 2 else 3.0 - g
        return _pack2(sig * s * (h / (4.0 * ell)) * d1 * (base - y),
                      -a * y + (a * h / 4.0) * ramp)

    def grad_entries(self, ramp, y):
        a, h, ell = self.alpha, self.h, self.ell
        s = a * (1.0 - a)
        if not self.bends:
            return 0.0, 0.0, 0.0, a
        g, d1, d2, _ = ramp
        if self.piece == 3:
            return -s * (h * h / (16.0 * ell * ell)) * d2, 0.0, 0.0, a
        sig, base = self._mirror(g)
        return (sig * s * (h / (4.0 * ell * ell)) * (d2 * (base - y) + sig * (h / 8.0) * d1 * d1),
                -sig * s * (h / (4.0 * ell)) * d1,
                sig * (a * h / (4.0 * ell)) * d1,
                -a)

    def hess(self, x, y):
        a, h, ell = self.alpha, self.h, self.ell
        s = a * (1.0 - a)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(np.asarray(x, float), y).shape + (2, 2, 2))
        if not self.bends:
            return out
        g, d1, d2, d3 = self.ramp(x)
        if self.piece == 3:
            out[..., 0, 0, 0] = -s * (h * h / (16.0 * np.float_power(ell, 3))) * d3
            return out
        sig, base = self._mirror(g)
        out[..., 0, 0, 0] = sig * s * (h / (4.0 * np.float_power(ell, 3))) * (
            d3 * (base - y) + sig * (3.0 * h / 8.0) * d1 * d2)
        out[..., 0, 0, 1] = -sig * s * (h / (4.0 * ell * ell)) * d2
        out[..., 0, 1, 0] = out[..., 0, 0, 1]
        out[..., 1, 0, 0] = sig * (a * h / (4.0 * ell * ell)) * d2
        return out

    def hess_profile(self, x, ramp=None):
        a, h, ell = self.alpha, self.h, self.ell
        s = a * (1.0 - a)
        x = np.asarray(x, dtype=float)
        zero = np.zeros_like(x)
        if not self.bends:
            return zero, zero, zero
        g, d1, d2, d3 = self.ramp(x) if ramp is None else ramp
        if self.piece == 3:
            return -s * (h * h / (16.0 * np.float_power(ell, 3))) * d3, zero, zero
        r2 = (2.0 * np.float_power(s * h / (4.0 * ell * ell), 2)
              + np.float_power(a * h / (4.0 * ell * ell), 2)) * d2 * d2
        sig, base = self._mirror(g)
        coef = s * (h / (4.0 * np.float_power(ell, 3)))
        return (sig * coef * (d3 * base + sig * (3.0 * h / 8.0) * d1 * d2),
                -sig * coef * d3, r2)

    def key(self) -> tuple:
        return ("k2cell", self.piece, self.ell, self.h, self.alpha, self.kind)


_PROFILE_TAGS = {(0, "cell"): "k1cell", (0, "boundary"): "k1bd", (1, "boundary"): "k2bd"}


@dataclass(frozen=True)
class ScalarProfilePiece(_Piece):
    """Cell piece moving one displacement component by a scalar profile.

    ``u[component] = phi(x, y)`` and the other component is the identity.
    Pieces 1, 3 and 5 are affine in y; pieces 2 and 4 follow the ramp,
    ``phi = slope * y + offset +- (alpha h / 4) g(x / ell)``.  Layouts:

    * ``"cell"``, component 0: the shear-case period-doubling cell (``k1cell``);
    * ``"boundary"``, component 0 or 1: the boundary layer gluing one
      sawtooth period to the identity trace, shear (``k1bd``) or stretch
      (``k2bd``) case.
    """

    component: int
    layout: str
    piece: int  # boundary layout: 1=B', 2=M', 3=A, 4=M'', 5=B''
    ell: float
    h: float
    alpha: float
    kind: str = "quintic"

    BENT = (2, 4)

    @property
    def curved(self) -> bool:
        # D^2 u is (alpha h / 4 ell^2) g'' on the bent pieces.
        return self.bends and self.kind != "linear"

    def __post_init__(self):
        if (self.component, self.layout) not in _PROFILE_TAGS:
            raise ValueError(f"no scalar-profile family for component {self.component} "
                             f"with layout {self.layout!r}")
        if self.piece not in (1, 2, 3, 4, 5):
            raise ValueError("piece index must be 1..5")

    def _discrete(self) -> tuple:
        return (self.component, self.layout, self.piece)

    def kinks(self) -> tuple[float, ...]:
        # |D^2 u| is a multiple of |g''(x / ell)|, and the quintic's g'' =
        # 60 t (2 t - 1) (t - 1) changes sign at t = 1/2.
        return (0.5 * self.ell,) if self.curved else ()

    def _profile(self, ramp, y):
        """``(phi, d_x phi, d_y phi)``."""
        a, h, ell = self.alpha, self.h, self.ell
        y = np.asarray(y, dtype=float)
        zero = np.zeros_like(y)
        cell = self.layout == "cell"
        if self.piece == 1:
            return a * y, zero, a + zero
        if self.piece == 3:
            if cell:
                return a * y - a * h / 2.0, zero, a + zero
            return a * (h / 2.0 - y), zero, -a + zero
        if self.piece == 5:
            return (a * y - a * h if cell else a * (y - h)), zero, a + zero
        sign = 1.0 if self.piece == 2 else -1.0
        g, d1, _, _ = ramp
        dx = sign * (a * h / (4.0 * ell)) * d1 + zero
        if not cell:
            return sign * (a * h / 4.0) * g + zero, dx, zero
        ramp = 1.0 + g if self.piece == 2 else 3.0 - g
        return -a * y + (a * h / 4.0) * ramp, dx, -a + zero

    def disp(self, x, y):
        val, _, _ = self._profile(self.ramp(x), y)
        out = np.zeros(val.shape + (2,))
        out[..., self.component] = val
        return out

    def grad_entries(self, ramp, y):
        _, dx, dy = self._profile(ramp, y)
        return (dx, dy, 0.0, 0.0) if self.component == 0 else (0.0, 0.0, dx, dy)

    def hess(self, x, y):
        A, _, _ = self.hess_profile(x)
        out = np.zeros(np.broadcast(np.asarray(x, float), np.asarray(y, float)).shape
                       + (2, 2, 2))
        out[..., self.component, 0, 0] = A
        return out

    def hess_profile(self, x, ramp=None):
        x = np.asarray(x, dtype=float)
        zero = np.zeros_like(x)
        if not self.bends:
            return zero, zero, zero
        sign = 1.0 if self.piece == 2 else -1.0
        _, _, d2, _ = self.ramp(x) if ramp is None else ramp
        return (sign * (self.alpha * self.h / (4.0 * np.float_power(self.ell, 2))) * d2,
                zero, zero)

    def key(self) -> tuple:
        return (_PROFILE_TAGS[self.component, self.layout], self.piece, self.ell,
                self.h, self.alpha, self.kind)
