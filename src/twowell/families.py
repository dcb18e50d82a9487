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
    quadrature relies on that: it integrates only curved maps, whose cells
    are bounded by curves of the map's ramp kind and width ``ell``, so a
    cell's bounds take the map's ramp values (``CellProto.bounds``).
    ``grad_reads_y`` tells whether the gradient depends on y (not by
    default), which it then does affinely; the elastic term takes such
    columns by a Gauss rule in y.  A curved map also gives its bulk-TV
    profile (``hess_profile``) and ``kinks()``, the local x inside the cell
    where the bulk-TV column integrand has a kink: where the derivative of
    the ramp that |D^2 u| is a multiple of changes sign, ell / 2 on the
    curved scalar-profile pieces and two points on the k2 cell's middle
    piece.  The quadrature splits the cell's root panel there.
    For the quadrature's tables, ``entry()`` returns its shape (the class
    and what selects a formula) and its row (every float the formula
    reads), and ``from_row(shape, cols)`` builds a member from an iterator
    of (m, 1) columns, one row per prototype, that evaluates against (m, n)
    points: many prototypes of one shape at once, with the ramp evaluated
    once per column of nodes.  So ``__post_init__`` checks only discrete
    fields, and integer powers of fields use ``np.float_power``, which is
    libm ``pow`` for scalars and arrays alike, so both forms give the same
    bits (``np.power`` on arrays may take a vectorized path that rounds
    differently).
    """

    bends = False
    grad_reads_y = False

    @property
    def curved(self) -> bool:
        return self.bends

    def ramp(self, x):
        return None

    def grad(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return _pack_grad(np.broadcast(x, y).shape, *self.grad_entries(self.ramp(x), y))

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


@dataclass(frozen=True)
class ScalarProfilePiece(_MapBase):
    """Cell piece moving one displacement component by a scalar profile.

    ``u[component] = phi(x, y)`` and the other component is the identity.
    Pieces 1, 3 and 5 are affine in y; pieces 2 and 4 follow the ramp
    ``g(x / ell)``, ``phi = slope * y + offset +- (alpha h / 4) g(x / ell)``.
    Layouts:

    * ``"cell"``, component 0: the shear-case period-doubling cell (``k1cell``);
    * ``"boundary"``, component 0 or 1: the boundary layer gluing one
      sawtooth period to the identity trace, shear (``k1bd``) or stretch
      (``k2bd``) case.

    The fields are the discrete ones, then (ell, h, alpha) and the ramp kind.
    Gradients read piece and layout only through ``role`` (flat, bent or the
    k2 cell's middle piece), the ramp term's ``sign`` (-1.0 on piece 4) and
    ``slope`` = d_y phi / alpha, set once per map: the table shape is (class,
    component, role, kind) and the row (ell, h, alpha, sign, slope).  Products
    with +-1.0 and 0.0 are exact and -0.0 + 0.0 = +0.0: rows keep their bits.
    """

    component: int
    layout: str
    piece: int  # boundary layout: 1=B', 2=M', 3=A, 4=M'', 5=B''
    ell: float
    h: float
    alpha: float
    kind: str = "quintic"

    _TAGS = {(0, "cell"): "k1cell", (0, "boundary"): "k1bd", (1, "boundary"): "k2bd"}
    _ROLES = ("flat", "bent", "flat", "bent", "flat")
    _SLOPES = {"cell": (1.0, -1.0, 1.0, -1.0, 1.0), "boundary": (1.0, 0.0, -1.0, 0.0, 1.0)}

    def __post_init__(self):
        if (self.component, self.layout) not in self._TAGS:
            raise ValueError(f"no {type(self).__name__} family for component "
                             f"{self.component} with layout {self.layout!r}")
        if self.piece not in (1, 2, 3, 4, 5):
            raise ValueError("piece index must be 1..5")
        i = self.piece - 1
        self.__dict__.update(role=self._ROLES[i], sign=-1.0 if i == 3 else 1.0,
                             slope=self._SLOPES[self.layout][i])

    def entry(self) -> tuple:
        return ((type(self), self.component, self.role, self.kind),
                (self.ell, self.h, self.alpha, self.sign, self.slope))

    @classmethod
    def from_row(cls, shape, cols):
        # A member of many rows has no piece or layout, only what gradients read.
        member = object.__new__(cls)
        member.__dict__.update(zip(("component", "role", "kind", "ell", "h", "alpha", "sign",
                                    "slope"), (*shape[1:], *itertools.islice(cols, 5))))
        return member

    @property
    def bends(self) -> bool:
        return self.role != "flat"

    @property
    def curved(self) -> bool:
        # D^2 u is (alpha h / 4 ell^2) g'' on the bent pieces.
        return self.bends and self.kind != "linear"

    def ramp(self, x):
        if not self.bends:
            return None
        return step_profile(self.kind)(np.asarray(x, dtype=float) / self.ell)

    def kinks(self) -> tuple[float, ...]:
        # |D^2 u| is a multiple of |g''(x / ell)|, and the quintic's g'' =
        # 60 t (2 t - 1) (t - 1) changes sign at t = 1/2.
        return (0.5 * self.ell,) if self.curved else ()

    def _phi(self, ramp, y):
        """``phi`` from the ramp values at x."""
        a, h = self.alpha, self.h
        y = np.asarray(y, dtype=float)
        cell = self.layout == "cell"
        if self.piece == 1:
            return a * y
        if self.piece == 3:
            return a * y - a * h / 2.0 if cell else a * (h / 2.0 - y)
        if self.piece == 5:
            return a * y - a * h if cell else a * (y - h)
        g = ramp[0]
        if not cell:
            return self.sign * (a * h / 4.0) * g + np.zeros_like(y)
        return -a * y + (a * h / 4.0) * (1.0 + g if self.piece == 2 else 3.0 - g)

    def _dphi(self, ramp, y):
        """``(d_x phi, d_y phi)`` from the ramp values at x."""
        a = self.alpha
        zero = np.zeros_like(np.asarray(y, dtype=float))
        dy = self.slope * a + zero
        if not self.bends:
            return zero, dy
        return self.sign * (a * self.h / (4.0 * self.ell)) * ramp[1] + zero, dy

    def _phi_xx(self, d2):
        """``d_xx phi`` on pieces 2 and 4, from the ramp's g''."""
        return self.sign * (self.alpha * self.h / (4.0 * np.float_power(self.ell, 2))) * d2

    def disp(self, x, y):
        val = self._phi(self.ramp(x), y)
        out = np.zeros(val.shape + (2,))
        out[..., self.component] = val
        return out

    def grad_entries(self, ramp, y):
        dx, dy = self._dphi(ramp, y)
        return (dx, dy, 0.0, 0.0) if self.component == 0 else (0.0, 0.0, dx, dy)

    def hess_profile(self, x, ramp):
        """Coefficients (A, B, R2) with ``|D^2 u|(x, y)^2 = (A + B y)^2 + R2``
        on a curved piece, from the map's ``ramp(x)``.

        Every family here is affine in y at second order, which lets the
        surface-energy bulk term integrate the y direction in closed form.
        """
        zero = np.zeros_like(np.asarray(x, dtype=float))
        return self._phi_xx(ramp[2]), zero, zero

    def key(self) -> tuple:
        return (self._TAGS[self.component, self.layout], self.piece, self.ell,
                self.h, self.alpha, self.kind)


class K2CellPiece(ScalarProfilePiece):
    """One of the five pieces of the stretch-case period-doubling cell,
    ``K2CellPiece(1, "cell", piece, ell, h, alpha)``.

    The vertical component is the period-doubling cell profile, between the
    two stretches; the horizontal component cancels the off-diagonal strain
    to first order (``d_y u1 + (1 - alpha) d_x u2 = 0`` on the transition
    pieces), which is what buys the ``h^5 / l^3`` cell energy.  That
    corrector also bends piece 3.
    """

    _TAGS = {(1, "cell"): "k2cell"}
    _ROLES = ("flat", "bent", "middle", "bent", "flat")

    def __post_init__(self):
        super().__post_init__()
        if self.kind != "quintic":
            # The horizontal component uses ramp derivatives; a linear ramp
            # would violate the vertical boundary traces.
            raise ValueError("stretch-case cells require the quintic ramp")

    @property
    def grad_reads_y(self) -> bool:
        # The transition pieces' d_x u1 carries d2 (base - y).
        return self.role == "bent"

    def kinks(self) -> tuple[float, ...]:
        # Piece 3's |D^2 u| is a multiple of |g'''(x / ell)|, and the
        # quintic's g''' = 60 (6 t^2 - 6 t + 1) changes sign at (3 -+ sqrt 3) / 6.
        if self.role != "middle":
            return ()
        return (self.ell * (3.0 - math.sqrt(3.0)) / 6.0,
                self.ell * (3.0 + math.sqrt(3.0)) / 6.0)

    def _mirror(self, g):
        """Sign and base curve ``y = base(x)`` of the transition pieces: piece
        4 is piece 2 reflected, built on the upper curve instead of the lower.
        The two bases round differently, so each row selects its own."""
        h = self.h
        return self.sign, np.where(self.sign > 0.0, (h / 8.0) * (1.0 + g),
                                   (7.0 * h / 8.0) - (h / 8.0) * g)

    def disp(self, x, y):
        ramp = self.ramp(x)
        y = np.asarray(y, dtype=float)
        u2 = self._phi(ramp, y)
        if not self.bends:
            return _pack2(np.zeros_like(u2), u2)
        a, h, ell = self.alpha, self.h, self.ell
        s = a * (1.0 - a)
        g, d1, _, _ = ramp
        if self.role == "middle":
            return _pack2(-s * (h * h / (16.0 * ell)) * d1, u2)
        sig, base = self._mirror(g)
        return _pack2(sig * s * (h / (4.0 * ell)) * d1 * (base - y), u2)

    def grad_entries(self, ramp, y):
        a, h, ell = self.alpha, self.h, self.ell
        s = a * (1.0 - a)
        if not self.bends:
            return 0.0, 0.0, 0.0, a
        g, d1, d2, _ = ramp
        if self.role == "middle":
            return -s * (h * h / (16.0 * ell * ell)) * d2, 0.0, 0.0, a
        sig, base = self._mirror(g)
        return (sig * s * (h / (4.0 * ell * ell)) * (d2 * (base - y) + sig * (h / 8.0) * d1 * d1),
                -sig * s * (h / (4.0 * ell)) * d1,
                sig * (a * h / (4.0 * ell)) * d1,
                -a)

    def hess_profile(self, x, ramp):
        a, h, ell = self.alpha, self.h, self.ell
        s = a * (1.0 - a)
        zero = np.zeros_like(np.asarray(x, dtype=float))
        g, d1, d2, d3 = ramp
        if self.role == "middle":
            return -s * (h * h / (16.0 * np.float_power(ell, 3))) * d3, zero, zero
        r2 = (2.0 * np.float_power(s * h / (4.0 * ell * ell), 2)
              + np.float_power(a * h / (4.0 * ell * ell), 2)) * d2 * d2
        sig, base = self._mirror(g)
        coef = s * (h / (4.0 * np.float_power(ell, 3)))
        return (sig * coef * (d3 * base + sig * (3.0 * h / 8.0) * d1 * d2),
                -sig * coef * d3, r2)
