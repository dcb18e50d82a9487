"""Piecewise-analytic deformation fields on rectangles.

A deformation ``u`` is stored as a collection of *cells*: graph-bounded
subdomains ``{(x, y): x in (0, w), lower(x) < y < upper(x)}`` (in local
coordinates) carrying a closed-form displacement map, so that value,
gradient and second gradient are exact everywhere.  Explicit *jump curves*
record where the gradient may be discontinuous; the deformation value is
continuous across them by construction.

Because the branched constructions repeat one cell thousands of times, a
cell prototype is stored once and instantiated along a vertical stack of
translated anchors (a :class:`CellGroup`).  Whole-field isometries (mirror
about a vertical axis, quarter rotation) and value rotations are kept as
lazy transforms on a :class:`Part` rather than rewriting cell lists, which
preserves exactness of traces and gradients.

Boundary curves are restricted to the family ``c0 + c1 * ramp(x / w)`` with
the quintic (or linear) ramp of :mod:`twowell.profiles`; every construction
implemented here has boundaries of this form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .profiles import step_profile

__all__ = [
    "Rect",
    "LocalCurve",
    "AffineDisp",
    "K2CellPiece",
    "ScalarProfilePiece",
    "CellProto",
    "CellGroup",
    "SideRef",
    "GraphJump",
    "VerticalJump",
    "JumpGroup",
    "Transform",
    "mirror_transform",
    "rotate90_transform",
    "value_rotation_transform",
    "push_forward",
    "Part",
    "PiecewiseDeformation",
    "identity_deformation",
    "mirror_x",
    "rotate_90",
    "rotate_values",
    "gradient_jump",
    "coverage_check",
    "CoverageReport",
    "write_manifest",
    "DomainError",
    "BoundaryPointError",
]

_ID2 = np.eye(2)


class DomainError(ValueError):
    """A query point lies outside the deformation's domain."""


class BoundaryPointError(ValueError):
    """Second gradients are undefined on cell boundaries."""


@dataclass(frozen=True)
class Rect:
    x0: float
    y0: float
    width: float
    height: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValueError("rectangle sides must be positive")

    @property
    def x1(self) -> float:
        return self.x0 + self.width

    @property
    def y1(self) -> float:
        return self.y0 + self.height

    @property
    def area(self) -> float:
        return self.width * self.height

    def contains(self, pts: np.ndarray, tol: float = 0.0) -> np.ndarray:
        x, y = pts[..., 0], pts[..., 1]
        return ((x >= self.x0 - tol) & (x <= self.x1 + tol)
                & (y >= self.y0 - tol) & (y <= self.y1 + tol))

    def boundary_points(self, n: int) -> np.ndarray:
        """n points tracing the boundary counterclockwise from (x0, y0)."""
        t = np.linspace(0.0, 4.0, n, endpoint=False)
        pts = np.empty((n, 2))
        for i, s in enumerate(t):
            side, frac = int(s), s - int(s)
            if side == 0:
                pts[i] = (self.x0 + frac * self.width, self.y0)
            elif side == 1:
                pts[i] = (self.x1, self.y0 + frac * self.height)
            elif side == 2:
                pts[i] = (self.x1 - frac * self.width, self.y1)
            else:
                pts[i] = (self.x0, self.y1 - frac * self.height)
        return pts


@dataclass(frozen=True)
class LocalCurve:
    """Boundary curve ``y = c0 + c1 * ramp(x / width)`` in cell-local coordinates."""

    c0: float
    c1: float
    width: float
    kind: str = "quintic"

    def value(self, x):
        g, _, _, _ = step_profile(self.kind)(np.asarray(x, dtype=float) / self.width)
        return self.c0 + self.c1 * g

    def slope(self, x):
        _, d1, _, _ = step_profile(self.kind)(np.asarray(x, dtype=float) / self.width)
        return self.c1 * d1 / self.width

    def integral(self) -> float:
        # Both ramp kinds integrate to 1/2 over [0, 1].
        return self.c0 * self.width + 0.5 * self.c1 * self.width

    def describe(self) -> str:
        return f"{self.c0!r}+{self.c1!r}*{self.kind}"


# ---------------------------------------------------------------------------
# Displacement maps (local coordinates; u(p) = p + disp(p - anchor))
# ---------------------------------------------------------------------------


class _MapBase:
    """Common shape handling for the closed-form displacement families.

    Float fields may also be (m, 1) columns, one row per prototype, against
    (m, n) points: the quadrature evaluates many prototypes of one family
    at once that way, so ``__post_init__`` checks only discrete fields.
    Integer powers of fields use ``np.float_power``, which is libm ``pow``
    for scalars and arrays alike, so both forms give the same bits
    (``np.power`` on arrays may take a vectorized path that rounds
    differently).
    """

    def disp(self, x, y):
        raise NotImplementedError

    def grad(self, x, y):
        raise NotImplementedError

    def hess(self, x, y):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (2, 2, 2))

    def hess_profile(self, x):
        """Coefficients (A, B, R2) with ``|D^2 u|(x, y)^2 = (A + B y)^2 + R2``.

        Every family here is affine in y at second order, which lets the
        surface-energy bulk term integrate the y direction in closed form.
        """
        zero = np.zeros_like(np.asarray(x, dtype=float))
        return zero, zero, zero

    def key(self) -> tuple:
        raise NotImplementedError

    def tag(self) -> str:
        return self.key()[0]


def _pack2(a, b):
    return np.stack([np.broadcast_to(a, np.broadcast(a, b).shape),
                     np.broadcast_to(b, np.broadcast(a, b).shape)], axis=-1)


def _pack_grad(g11, g12, g21, g22):
    shape = np.broadcast(g11, g12, g21, g22).shape
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

    def disp(self, x, y):
        return _pack2(self.p11 * x + self.p12 * y + self.v1,
                      self.p21 * x + self.p22 * y + self.v2)

    def grad(self, x, y):
        x = np.asarray(x, dtype=float)
        zero = np.zeros_like(x)
        return _pack_grad(zero + self.p11, zero + self.p12,
                          zero + self.p21, zero + self.p22)

    def key(self) -> tuple:
        return ("affine", self.p11, self.p12, self.p21, self.p22, self.v1, self.v2)


@dataclass(frozen=True)
class K2CellPiece(_MapBase):
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

    def _g(self, x):
        return step_profile(self.kind)(np.asarray(x, dtype=float) / self.ell)

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
        g, d1, _, _ = self._g(x)
        if self.piece == 3:
            return _pack2(-s * (h * h / (16.0 * ell)) * d1 + np.zeros_like(y),
                          a * y - a * h / 2.0)
        sig, base = self._mirror(g)
        ramp = 1.0 + g if self.piece == 2 else 3.0 - g
        return _pack2(sig * s * (h / (4.0 * ell)) * d1 * (base - y),
                      -a * y + (a * h / 4.0) * ramp)

    def grad(self, x, y):
        a, h, ell = self.alpha, self.h, self.ell
        s = a * (1.0 - a)
        y = np.asarray(y, dtype=float)
        zero = np.zeros_like(y)
        if self.piece == 1 or self.piece == 5:
            return _pack_grad(zero, zero, zero, zero + a)
        g, d1, d2, _ = self._g(x)
        if self.piece == 3:
            return _pack_grad(-s * (h * h / (16.0 * ell * ell)) * d2 + zero,
                              zero, zero, zero + a)
        sig, base = self._mirror(g)
        return _pack_grad(
            sig * s * (h / (4.0 * ell * ell)) * (d2 * (base - y) + sig * (h / 8.0) * d1 * d1),
            -sig * s * (h / (4.0 * ell)) * d1 + zero,
            sig * (a * h / (4.0 * ell)) * d1 + zero,
            zero - a,
        )

    def hess(self, x, y):
        a, h, ell = self.alpha, self.h, self.ell
        s = a * (1.0 - a)
        y = np.asarray(y, dtype=float)
        out = np.zeros(np.broadcast(np.asarray(x, float), y).shape + (2, 2, 2))
        if self.piece == 1 or self.piece == 5:
            return out
        g, d1, d2, d3 = self._g(x)
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

    def hess_profile(self, x):
        a, h, ell = self.alpha, self.h, self.ell
        s = a * (1.0 - a)
        x = np.asarray(x, dtype=float)
        zero = np.zeros_like(x)
        if self.piece in (1, 5):
            return zero, zero, zero
        g, d1, d2, d3 = self._g(x)
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
class ScalarProfilePiece(_MapBase):
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

    def __post_init__(self):
        if (self.component, self.layout) not in _PROFILE_TAGS:
            raise ValueError(f"no scalar-profile family for component {self.component} "
                             f"with layout {self.layout!r}")
        if self.piece not in (1, 2, 3, 4, 5):
            raise ValueError("piece index must be 1..5")

    def _profile(self, x, y):
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
        g, d1, _, _ = step_profile(self.kind)(np.asarray(x, float) / ell)
        dx = sign * (a * h / (4.0 * ell)) * d1 + zero
        if not cell:
            return sign * (a * h / 4.0) * g + zero, dx, zero
        ramp = 1.0 + g if self.piece == 2 else 3.0 - g
        return -a * y + (a * h / 4.0) * ramp, dx, -a + zero

    def disp(self, x, y):
        val, _, _ = self._profile(x, y)
        out = np.zeros(val.shape + (2,))
        out[..., self.component] = val
        return out

    def grad(self, x, y):
        _, dx, dy = self._profile(x, y)
        out = np.zeros(np.broadcast(dx, dy).shape + (2, 2))
        out[..., self.component, 0] = dx
        out[..., self.component, 1] = dy
        return out

    def hess(self, x, y):
        A, _, _ = self.hess_profile(x)
        out = np.zeros(np.broadcast(np.asarray(x, float), np.asarray(y, float)).shape
                       + (2, 2, 2))
        out[..., self.component, 0, 0] = A
        return out

    def hess_profile(self, x):
        x = np.asarray(x, dtype=float)
        zero = np.zeros_like(x)
        if self.piece not in (2, 4):
            return zero, zero, zero
        sign = 1.0 if self.piece == 2 else -1.0
        _, _, d2, _ = step_profile(self.kind)(x / self.ell)
        return (sign * (self.alpha * self.h / (4.0 * np.float_power(self.ell, 2))) * d2,
                zero, zero)

    def key(self) -> tuple:
        return (_PROFILE_TAGS[self.component, self.layout], self.piece, self.ell,
                self.h, self.alpha, self.kind)


# ---------------------------------------------------------------------------
# Cells, jumps, transforms, parts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellProto:
    """A graph-bounded cell in local coordinates with its displacement map."""

    width: float
    lower: LocalCurve
    upper: LocalCurve
    map: _MapBase

    def area(self) -> float:
        return self.upper.integral() - self.lower.integral()

    def key(self) -> tuple:
        return (self.map.key(), self.lower.c0, self.lower.c1,
                self.upper.c0, self.upper.c1, self.width)

    def contains(self, x, y, tol: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        in_x = (x >= -tol) & (x <= self.width + tol)
        xc = np.clip(x, 0.0, self.width)
        return in_x & (y >= self.lower.value(xc) - tol) & (y <= self.upper.value(xc) + tol)


class _Stacked:
    """Instances of a prototype at anchors (x0, y0 + k dy), k < count."""

    def anchors(self, k=None) -> np.ndarray:
        """(len(k), 2) anchors of instances ``k`` (default: all of them)."""
        k = np.arange(self.count) if k is None else np.asarray(k)
        return np.column_stack([np.full(len(k), self.x0), self.y0 + self.dy * k])


@dataclass(frozen=True)
class CellGroup(_Stacked):
    """A cell prototype instantiated at anchors (x0, y0 + k dy), k < count."""

    proto: CellProto
    x0: float
    y0: float
    dy: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("cell group needs at least one instance")
        if self.count > 1 and self.dy <= 0:
            raise ValueError("stacked instances need a positive vertical step")


@dataclass(frozen=True)
class Transform:
    """Affine conjugation wrapper: ``u_world(p) = CL u_base(Q p + b) + c``.

    Mirror, quarter-rotation and value-rotation wrappers are all of this
    form; ``Q`` is the Jacobian of the point map, so gradients push forward
    as ``CL Du Q`` and second gradients pick up one ``Q`` per derivative.
    """

    Q: np.ndarray
    b: np.ndarray
    CL: np.ndarray
    c: np.ndarray
    name: str


def mirror_transform(axis_x: float) -> Transform:
    S = np.array([[-1.0, 0.0], [0.0, 1.0]])
    shift = np.array([2.0 * axis_x, 0.0])
    return Transform(S, shift, S, shift, f"mirror(x={axis_x!r})")


def rotate90_transform() -> Transform:
    Z = np.array([[0.0, 1.0], [1.0, 0.0]])
    zero = np.zeros(2)
    return Transform(Z, zero, Z, zero, "swap-rotate")


def value_rotation_transform(R: np.ndarray) -> Transform:
    return Transform(_ID2.copy(), np.zeros(2), np.asarray(R, float), np.zeros(2),
                     "value-rotation")


def push_forward(CL, du, Q):
    """``CL @ du @ Q`` over the last two axes of 2x2 batches, written out
    entry by entry (CL and Q broadcast against du).

    For the signed permutations of mirror and swap every entry is a single
    product, so the result is exact; ``+ 0.0`` turns -0 into +0 as an einsum
    sum does.  Unlike ``@`` it never calls BLAS, whose first 2x2 product
    alone adds 0.5 MB to the resident set of a quadrature-only run.
    """
    M = CL[..., :, :1] * du[..., None, 0, :]
    M += CL[..., :, 1:] * du[..., None, 1, :]
    F = M[..., :, :1] * Q[..., None, 0, :]
    F += M[..., :, 1:] * Q[..., None, 1, :]
    F += 0.0
    return F


def _fold_transforms(transforms: Sequence[Transform]):
    """Composite (Q, b, CL, c) for a stack applied outermost-first."""
    Q, b = _ID2.copy(), np.zeros(2)
    CL, c = _ID2.copy(), np.zeros(2)
    for t in transforms:
        Q = t.Q @ Q
        b = t.Q @ b + t.b
        c = c + CL @ t.c
        CL = CL @ t.CL
    return Q, b, CL, c


@dataclass(frozen=True)
class SideRef:
    """One side of a jump curve: a displacement map plus the offset taking
    jump-local coordinates into the side cell's local frame.  ``conj`` marks
    a side that lives on the mirrored copy of the pattern (the jump then
    sits on the mirror axis, where the point map is the identity)."""

    map: _MapBase
    off_x: float
    off_y: float
    conj: Transform | None = None

    def local(self, jx, jy):
        return jx + self.off_x, jy + self.off_y

    def value(self, pts_abs, jx, jy):
        lx, ly = self.local(jx, jy)
        u = pts_abs + self.map.disp(lx, ly)
        if self.conj is not None:
            u = u @ self.conj.CL.T + self.conj.c
        return u

    def grad(self, jx, jy):
        lx, ly = self.local(jx, jy)
        du = _ID2 + self.map.grad(lx, ly)
        if self.conj is not None:
            du = push_forward(self.conj.CL, du, self.conj.Q)
        return du


@dataclass(frozen=True)
class GraphJump:
    """Jump curve of graph type ``y = curve(x)`` between a below and an above cell."""

    curve: LocalCurve
    below: SideRef
    above: SideRef
    tag: str

    def key(self) -> tuple:
        return ("graph", self.tag, self.curve.c0, self.curve.c1, self.curve.width,
                self.below.map.key(), self.above.map.key())

    def sides(self):
        return self.below, self.above

    def points(self, t):
        t = np.asarray(t, dtype=float)
        return t, self.curve.value(t)

    def weight(self, t):
        return np.hypot(1.0, self.curve.slope(t))

    def length_param(self) -> float:
        return self.curve.width


@dataclass(frozen=True)
class VerticalJump:
    """Vertical jump segment ``x = const`` between a left and a right cell."""

    length: float
    left: SideRef
    right: SideRef
    tag: str

    def key(self) -> tuple:
        return ("vertical", self.tag, self.length,
                self.left.map.key(), self.right.map.key())

    def sides(self):
        return self.left, self.right

    def points(self, t):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t), t

    def weight(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def length_param(self) -> float:
        return self.length


@dataclass(frozen=True)
class JumpGroup(_Stacked):
    proto: GraphJump | VerticalJump
    x0: float
    y0: float
    dy: float
    count: int

    def sides(self):
        return self.proto.sides()


@dataclass(frozen=True)
class Part:
    """Cells and jumps sharing one (possibly empty) transform stack."""

    groups: tuple[CellGroup, ...]
    jumps: tuple[JumpGroup, ...]
    transforms: tuple[Transform, ...]
    support: Rect

    def folded(self):
        return _fold_transforms(self.transforms)


def _transform_rect(t: Transform, r: Rect) -> Rect:
    # The inverse point map sends base to world; for our isometries Q is an
    # involution or a rotation, so map the corners and rebox.
    corners = np.array([[r.x0, r.y0], [r.x1, r.y0], [r.x0, r.y1], [r.x1, r.y1]])
    # world points p satisfy Q p + b = base corner  =>  p = Q^-1 (corner - b)
    inv = np.linalg.inv(t.Q)
    world = (corners - t.b) @ inv.T
    lo = world.min(axis=0)
    hi = world.max(axis=0)
    return Rect(lo[0], lo[1], hi[0] - lo[0], hi[1] - lo[1])


@dataclass
class PiecewiseDeformation:
    """A deformation of a rectangle given by parts of analytic cells.

    Invariants (checked by :func:`coverage_check`): the cells tile the
    domain up to a null set, the value is continuous across every jump
    curve, and the boundary trace is the identity for the global
    constructions.
    """

    domain: Rect
    parts: tuple[Part, ...]
    meta: dict = field(default_factory=dict)

    # -- basic queries ------------------------------------------------------

    def cell_count(self) -> int:
        return sum(g.count for p in self.parts for g in p.groups)

    def iter_jump_groups(self) -> Iterator[tuple[Part, JumpGroup]]:
        for part in self.parts:
            for jg in part.jumps:
                yield part, jg

    # -- evaluation ---------------------------------------------------------

    def _geom_tol(self) -> float:
        return 1e-11 * max(self.domain.width, self.domain.height)

    def _locate(self, p: np.ndarray):
        """Resolve each point of the (n, 2) batch ``p`` to one cell instance.

        Yields ``(ip, idx, q, lx, ly, group)`` per part, cell group and
        instance offset: the indices of the points found there, their
        coordinates in the part's base frame and in the prototype's local
        frame.  Points on shared cell boundaries resolve deterministically to
        the first part/group/instance in build order (below and left cells
        are emitted first by the construction builders).
        """
        tol = self._geom_tol()
        if not np.all(self.domain.contains(p, tol)):
            raise DomainError("point outside the deformation domain")
        done = np.zeros(p.shape[0], dtype=bool)
        for ip, part in enumerate(self.parts):
            sel = np.flatnonzero(~done & part.support.contains(p, tol))
            if sel.size == 0:
                continue
            Q, b, _, _ = part.folded()
            q = p[sel] @ Q.T + b
            for g in part.groups:
                rem = np.flatnonzero(~done[sel])
                if rem.size == 0:
                    break
                xl = q[rem, 0] - g.x0
                in_x = (xl >= -tol) & (xl <= g.proto.width + tol)
                if not np.any(in_x):
                    continue
                if g.count > 1:
                    kf = np.floor((q[rem, 1] - g.y0) / g.dy).astype(int)
                else:
                    kf = np.zeros(rem.size, dtype=int)
                for delta in (-1, 0, 1):
                    k = kf + delta
                    cand = in_x & (k >= 0) & (k < g.count) & ~done[sel[rem]]
                    if not np.any(cand):
                        continue
                    yl = q[rem, 1] - (g.y0 + k * g.dy)
                    ok = cand & g.proto.contains(xl, yl, tol)
                    if not np.any(ok):
                        continue
                    hit = rem[ok]
                    done[sel[hit]] = True
                    yield ip, sel[hit], q[hit], xl[ok], yl[ok], g
        if not np.all(done):
            raise DomainError("point not covered by any cell (broken tiling?)")

    def evaluate(self, pts):
        """Value and gradient at one point or an (n, 2) batch."""
        p = np.asarray(pts, dtype=float)
        single = p.ndim == 1
        p = np.atleast_2d(p)
        n = p.shape[0]
        u = np.empty((n, 2))
        du = np.empty((n, 2, 2))
        owner = np.empty(n, dtype=int)
        for ip, idx, q, lx, ly, g in self._locate(p):
            u[idx] = q + g.proto.map.disp(lx, ly)
            du[idx] = _ID2 + g.proto.map.grad(lx, ly)
            owner[idx] = ip
        # Push each part's base values through its transform stack in one batch.
        for ip, part in enumerate(self.parts):
            hit = np.flatnonzero(owner == ip)
            if hit.size:
                Q, _, CL, c = part.folded()
                u[hit] = u[hit] @ CL.T + c
                du[hit] = push_forward(CL, du[hit], Q)
        if single:
            return u[0], du[0]
        return u, du

    def second_gradient(self, pts):
        """Second gradient tensor (2, 2, 2) at points strictly inside a cell."""
        p = np.asarray(pts, dtype=float)
        single = p.ndim == 1
        p = np.atleast_2d(p)
        edge_tol = 1e-13 * max(self.domain.width, self.domain.height)
        out = np.empty((p.shape[0], 2, 2, 2))
        for ip, idx, _, lx, ly, g in self._locate(p):
            # A negative tolerance asks for points at least edge_tol inside.
            if not np.all(g.proto.contains(lx, ly, -edge_tol)):
                raise BoundaryPointError("second gradient requested on a cell boundary")
            Q, _, CL, _ = self.parts[ip].folded()
            hess = g.proto.map.hess(lx, ly)
            # (CL hess)[i] is a 2x2 matrix in (b, c); conjugate it by Q.
            out[idx] = Q.T @ (CL @ hess.reshape(-1, 2, 4)).reshape(-1, 2, 2, 2) @ Q
        if single:
            return out[0]
        return out


# ---------------------------------------------------------------------------
# Field-level operations
# ---------------------------------------------------------------------------


def identity_deformation(rect: Rect) -> PiecewiseDeformation:
    proto = CellProto(
        width=rect.width,
        lower=LocalCurve(0.0, 0.0, rect.width),
        upper=LocalCurve(rect.height, 0.0, rect.width),
        map=AffineDisp(),
    )
    group = CellGroup(proto, rect.x0, rect.y0, 0.0, 1)
    part = Part((group,), (), (), rect)
    return PiecewiseDeformation(rect, (part,), meta={"label": "identity"})


def _wrap(def_: PiecewiseDeformation, t: Transform, domain: Rect) -> PiecewiseDeformation:
    """Put ``t`` outermost on every part's transform stack."""
    parts = tuple(Part(p.groups, p.jumps, (t,) + p.transforms, _transform_rect(t, p.support))
                  for p in def_.parts)
    return PiecewiseDeformation(domain, parts, meta=dict(def_.meta))


def mirror_x(def_: PiecewiseDeformation, axis_x: float) -> PiecewiseDeformation:
    """Reflect the field about the vertical line ``x = axis_x``.

    The domain's right edge must sit on the axis; the reflected field keeps
    identity boundary values on the reflected outer edge.
    """
    if abs(def_.domain.x1 - axis_x) > 1e-9 * max(1.0, def_.domain.width):
        raise ValueError("mirror axis must coincide with the domain's right edge")
    d = def_.domain
    return _wrap(def_, mirror_transform(axis_x), Rect(axis_x, d.y0, d.width, d.height))


def rotate_90(def_: PiecewiseDeformation) -> PiecewiseDeformation:
    """Conjugate by the coordinate swap: ``v(x, y) = Z u(Z (x, y))``.

    Swaps the domain's width and height and preserves the total variation of
    the gradient; the trace stays the identity on the boundary.
    """
    d = def_.domain
    return _wrap(def_, rotate90_transform(), Rect(d.y0, d.x0, d.height, d.width))


def rotate_values(def_: PiecewiseDeformation, R: np.ndarray) -> PiecewiseDeformation:
    """Compose the values with a constant rotation: ``u -> R u`` (test helper)."""
    return _wrap(def_, value_rotation_transform(R), def_.domain)


def gradient_jump(def_: PiecewiseDeformation, part: Part, jump: JumpGroup,
                  t: float, instance: int = 0) -> np.ndarray:
    """Gradient jump (second side minus first) at curve parameter t, pushed
    through the part's transform stack."""
    proto = jump.proto
    jx, jy = proto.points(np.asarray([t], dtype=float))
    s1, s2 = jump.sides()
    d1 = s1.grad(jx, jy)
    d2 = s2.grad(jx, jy)
    Q, b, CL, c = part.folded()
    diff = d2[0] - d1[0]
    return CL @ diff @ Q


# ---------------------------------------------------------------------------
# Coverage / consistency report
# ---------------------------------------------------------------------------


@dataclass
class CoverageReport:
    area_residual: float
    continuity_max: float
    boundary_max: float
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def coverage_check(def_: PiecewiseDeformation, curve_samples: int = 64,
                   boundary_samples: int = 256, max_instances: int = 8,
                   area_rtol: float = 1e-9, continuity_tol: float = 1e-10,
                   boundary_tol: float | None = 1e-12) -> CoverageReport:
    """Verify tiling area, value continuity across jumps and boundary trace.

    ``boundary_tol`` of None skips the identity-trace check (single cells
    and laminates do not satisfy identity data on all four sides).
    """
    failures: list[str] = []

    area = sum(g.proto.area() * g.count for p in def_.parts for g in p.groups)
    area_res = abs(area - def_.domain.area) / def_.domain.area
    if area_res > area_rtol:
        failures.append(f"cell areas sum to {area!r}, domain area {def_.domain.area!r}")

    cont = 0.0
    for part, jg in def_.iter_jump_groups():
        proto = jg.proto
        span = proto.length_param()
        ts = np.linspace(0.0, span, curve_samples + 2)[1:-1]
        jx, jy = proto.points(ts)
        s1, s2 = jg.sides()
        if jg.count <= max_instances:
            ks = range(jg.count)
        else:
            ks = sorted({0, jg.count - 1,
                         *np.linspace(0, jg.count - 1, max_instances).astype(int)})
        for anchor in jg.anchors(ks):
            pts = anchor + np.column_stack([jx, jy])
            v1 = s1.value(pts, jx, jy)
            v2 = s2.value(pts, jx, jy)
            cont = max(cont, float(np.max(np.abs(v1 - v2))))
    if cont > continuity_tol:
        failures.append(f"value mismatch {cont:.3e} across a jump curve")

    bmax = 0.0
    if boundary_tol is not None:
        pts = def_.domain.boundary_points(boundary_samples)
        u, _ = def_.evaluate(pts)
        bmax = float(np.max(np.abs(u - pts)))
        if bmax > boundary_tol:
            failures.append(f"boundary trace deviates by {bmax:.3e}")

    return CoverageReport(area_res, cont, bmax, failures)


# ---------------------------------------------------------------------------
# Debug serialization
# ---------------------------------------------------------------------------


def write_manifest(def_: PiecewiseDeformation, stream) -> None:
    """Plain-text cell manifest (one line per cell group; debugging aid only)."""
    own = isinstance(stream, (str, bytes))
    fh = open(stream, "w") if own else stream
    try:
        d = def_.domain
        fh.write(f"domain x0={d.x0!r} y0={d.y0!r} width={d.width!r} height={d.height!r}\n")
        for meta_k in sorted(def_.meta):
            fh.write(f"meta {meta_k}={def_.meta[meta_k]!r}\n")
        for ip, part in enumerate(def_.parts):
            names = ",".join(t.name for t in part.transforms) or "none"
            fh.write(f"part {ip} transforms={names} cells="
                     f"{sum(g.count for g in part.groups)}\n")
            for g in part.groups:
                key = g.proto.map.key()
                params = ":".join(repr(v) for v in key[1:])
                fh.write(
                    f"cell part={ip} family={key[0]} params={params} "
                    f"x0={g.x0!r} y0={g.y0!r} dy={g.dy!r} count={g.count} "
                    f"lower={g.proto.lower.describe()} upper={g.proto.upper.describe()}\n"
                )
            for jg in part.jumps:
                fh.write(
                    f"jump part={ip} tag={jg.proto.tag} x0={jg.x0!r} y0={jg.y0!r} "
                    f"dy={jg.dy!r} count={jg.count}\n"
                )
    finally:
        if own:
            fh.close()
