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
about a vertical axis, quarter rotation) and value rotations are composed
into one :class:`Transform` per :class:`Part` rather than rewriting cell
lists, which preserves exactness of traces and gradients.

Boundary curves are restricted to the family ``c0 + c1 * ramp(x / w)`` with
the quintic (or linear) ramp of :mod:`twowell.profiles`; every construction
implemented here has boundaries of this form.  The displacement maps are
the families of :mod:`twowell.families`.

For the quadrature, curves, maps, cells, jumps and transforms declare a
table entry (``entry()``: a shape of discrete fields and a row of floats)
and rebuild a member whose floats are (m, 1) columns (``from_row``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterator

import numpy as np

from .families import AffineDisp, _MapBase, _pack_grad
from .profiles import step_profile, step_value
from .wells import Z_SWAP

__all__ = [
    "Rect",
    "LocalCurve",
    "CellProto",
    "CellGroup",
    "SideRef",
    "GraphJump",
    "VerticalJump",
    "JumpGroup",
    "Transform",
    "IDENTITY",
    "mirror_transform",
    "rotate90_transform",
    "Part",
    "PiecewiseDeformation",
    "identity_deformation",
    "mirror_x",
    "rotate_90",
    "rotate_values",
    "coverage_check",
    "CoverageReport",
    "write_manifest",
    "DomainError",
]

_ID2 = np.eye(2)


class DomainError(ValueError):
    """A query point lies outside the deformation's domain."""


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
        side = t.astype(int)
        fw, fh = (t - side) * self.width, (t - side) * self.height
        x = np.choose(side, (self.x0 + fw, self.x1, self.x1 - fw, self.x0))
        y = np.choose(side, (self.y0, self.y0 + fh, self.y1, self.y1 - fh))
        return np.column_stack([x, y])


@dataclass(frozen=True)
class LocalCurve:
    """Boundary curve ``y = c0 + c1 * ramp(x / width)`` in cell-local coordinates."""

    c0: float
    c1: float
    width: float
    kind: str = "quintic"

    def value(self, x):
        return self.c0 + self.c1 * step_value(self.kind, np.asarray(x, dtype=float) / self.width)

    def integral(self) -> float:
        # Both ramp kinds integrate to 1/2 over [0, 1].
        return self.c0 * self.width + 0.5 * self.c1 * self.width

    def describe(self) -> str:
        return f"{self.c0!r}+{self.c1!r}*{self.kind}"

    def entry(self) -> tuple:
        return self.kind, (self.c0, self.c1, self.width)

    @classmethod
    def from_row(cls, kind, cols):
        return cls(next(cols), next(cols), next(cols), kind)


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

    def entry(self) -> tuple:
        (ls, lr), (us, ur), (ms, mr) = self.lower.entry(), self.upper.entry(), self.map.entry()
        return (CellProto, ls, us, ms), (self.width,) + lr + ur + mr

    @classmethod
    def from_row(cls, shape, cols):
        return cls(next(cols), LocalCurve.from_row(shape[1], cols),
                   LocalCurve.from_row(shape[2], cols), shape[3][0].from_row(shape[3], cols))

    def bounds(self, ramp):
        """``(lower(x), upper(x))`` from the map's ``ramp(x)``, for a cell
        whose map is curved.  The curves of such a cell follow the map's
        ramp kind and width ``ell`` (every construction builds its cells so),
        so they take its value g(x / ell) instead of evaluating it again:
        the arithmetic of :meth:`LocalCurve.value`, so the same bits."""
        g = ramp[0]
        return self.lower.c0 + self.lower.c1 * g, self.upper.c0 + self.upper.c1 * g

    def contains(self, x, y, tol: float) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        in_x = (x >= -tol) & (x <= self.width + tol)
        xc = np.clip(x, 0.0, self.width)
        return in_x & (y >= self.lower.value(xc) - tol) & (y <= self.upper.value(xc) + tol)


class _Stacked:
    """Instances of a prototype at anchors (x0, y0 + k dy), k < count."""

    def anchors(self, k) -> np.ndarray:
        """(len(k), 2) anchors of instances ``k``."""
        k = np.asarray(k, dtype=float)
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
    form, and so is any stack of them (:meth:`around`); ``Q`` is the
    Jacobian of the point map, so gradients push forward as ``CL Du Q`` and
    second gradients pick up one ``Q`` per derivative.  ``Q`` is a signed
    permutation (identity, mirror, swap and their products), so the point
    map is inverted by ``Q^T``.
    """

    Q: np.ndarray
    b: np.ndarray
    CL: np.ndarray
    c: np.ndarray
    name: str

    def around(self, inner: "Transform") -> "Transform":
        """This transform put outermost on ``inner``, as one transform; the
        names join outermost first."""
        return Transform(inner.Q @ self.Q, inner.Q @ self.b + inner.b,
                         self.CL @ inner.CL, self.c + self.CL @ inner.c,
                         ",".join(n for n in (self.name, inner.name) if n))

    def to_base(self, p: np.ndarray) -> np.ndarray:
        """World points (..., 2) to the base frame: ``Q p + b``."""
        return p @ self.Q.T + self.b

    def to_world(self, q: np.ndarray) -> np.ndarray:
        """Base-frame points (..., 2) to the world: ``Q^T (q - b)``."""
        return (q - self.b) @ self.Q

    def value(self, u: np.ndarray) -> np.ndarray:
        """Base values (..., 2) to world values: ``CL u + c``."""
        return u @ self.CL.T + self.c

    def gradient(self, g, out):
        """Write ``CL (I + g) Q`` into ``out`` (..., 2, 2), from the entries
        ``g = (g11, g12, g21, g22)`` of displacement gradients.

        A signed-permutation pair writes each entry once, ``sign (g_pq +
        delta_pq)``.  Any other pair (a value rotation) writes the products
        out entry by entry, ``(CL du)_i0 Q_0j + (CL du)_i1 Q_1j``.  Either
        way ``+ 0.0`` turns -0 into +0, as an einsum sum does, and no BLAS
        call is made: the first 2x2 ``@`` alone adds 0.5 MB to the resident
        set of a quadrature-only run.
        """
        pattern = _signed_pattern(self.CL.tobytes(), self.Q.tobytes())
        if pattern is None:
            CL, Q, du = self.CL, self.Q, _ID2 + _pack_grad(out.shape[:-2], *g)
            M = CL[:, :1] * du[..., None, 0, :]
            M += CL[:, 1:] * du[..., None, 1, :]
            np.multiply(M[..., :, :1], Q[0, :], out=out)
            out += M[..., :, 1:] * Q[1, :]
            out += 0.0
            return out
        for k, (pq, sign) in enumerate(pattern):
            delta = 1.0 if pq in (0, 3) else 0.0
            if sign > 0:
                np.add(g[pq], delta, out=out[..., k // 2, k % 2])
            else:
                np.subtract(0.0 - delta, g[pq], out=out[..., k // 2, k % 2])
        return out

    # Table protocol.  A deformation has a few conjugations (identity,
    # mirror, swap, their products, one per value rotation), so the matrices
    # are the shape, taken once per transform; the quadrature conjugates one
    # run of rows at a time.  The integrands read only gradients, so the row
    # is empty: a member is built from the shape alone, once per shape.
    def __post_init__(self):
        self.__dict__["_shape"] = (tuple(self.CL.ravel().tolist()),
                                   tuple(self.Q.ravel().tolist()))

    def entry(self) -> tuple:
        return self._shape, ()

    @classmethod
    @lru_cache(maxsize=64)
    def from_row(cls, shape):
        CL, Q = (np.reshape(m, (2, 2)) for m in shape)
        return cls(Q, np.zeros(2), CL, np.zeros(2), "")


IDENTITY = Transform(_ID2, np.zeros(2), _ID2, np.zeros(2), "")


def mirror_transform(axis_x: float) -> Transform:
    S = np.array([[-1.0, 0.0], [0.0, 1.0]])
    shift = np.array([2.0 * axis_x, 0.0])
    return Transform(S, shift, S, shift, f"mirror(x={axis_x!r})")


def rotate90_transform() -> Transform:
    return Transform(Z_SWAP, np.zeros(2), Z_SWAP, np.zeros(2), "swap-rotate")


@lru_cache(maxsize=64)
def _signed_pattern(cl: bytes, q: bytes):
    """``(pq, sign)`` per entry of ``CL du Q`` (row-major, du_pq at 2p + q)
    with ``(CL du Q)_ij = sign du_pq``, when every entry is a single product
    of entries in {-1, 0, 1} (identity, mirror, swap and their products);
    None otherwise.  Plain Python: the first NumPy reduction along an axis
    alone adds about 0.3 MB to the resident set."""
    CL, Q = (np.frombuffer(m).reshape(2, 2).tolist() for m in (cl, q))
    if not set(CL[0] + CL[1] + Q[0] + Q[1]) <= {-1.0, 0.0, 1.0}:
        return None
    pattern = []
    for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)):
        terms = [(2 * k + l, CL[i][k] * Q[l][j]) for k in (0, 1) for l in (0, 1)
                 if CL[i][k] * Q[l][j]]
        if len(terms) != 1:
            return None
        pattern += terms
    return tuple(pattern)


@dataclass(frozen=True)
class SideRef:
    """One side of a jump curve: a displacement map plus the offset taking
    jump-local coordinates into the side cell's local frame.  ``conj`` is
    the mirror for a side that lives on the mirrored copy of the pattern
    (the jump then sits on the mirror axis, where the point map is the
    identity), and :data:`IDENTITY` otherwise."""

    map: _MapBase
    off_x: float
    off_y: float
    conj: Transform = IDENTITY

    def local(self, jx, jy):
        return jx + self.off_x, jy + self.off_y

    def value(self, pts_abs, jx, jy):
        lx, ly = self.local(jx, jy)
        return self.conj.value(pts_abs + self.map.disp(lx, ly))

    def grad(self, ramp, jy):
        """Gradient at jump-local height ``jy`` from the ramp at the side's local x."""
        ly = jy + self.off_y
        return self.conj.gradient(self.map.grad_entries(ramp, ly), np.empty(np.shape(ly) + (2, 2)))

    def entry(self) -> tuple:
        (ms, mr), (cs, _) = self.map.entry(), self.conj.entry()
        return (ms, cs), mr + (self.off_x, self.off_y)

    @classmethod
    def from_row(cls, shape, cols):
        return cls(shape[0][0].from_row(shape[0], cols), next(cols), next(cols),
                   Transform.from_row(shape[1]))


@dataclass(frozen=True)
class GraphJump:
    """Jump curve of graph type ``y = curve(x)`` between a below and an above cell.

    Each side's map either does not bend or follows the curve's ramp kind
    and width at the same local x (``off_x`` 0.0), as every construction
    builds its curves: one ramp serves the curve and both sides.  Its
    integrand is symmetric in the sides, so ``entry()`` lists them in the
    order of their shapes (sides of one shape as (below, above))."""

    curve: LocalCurve
    below: SideRef
    above: SideRef

    def entry(self) -> tuple:
        # Side shapes (map shape, conjugation) of one map class compare field by field.
        first, second = sorted((self.below.entry(), self.above.entry()),
                               key=lambda side: (side[0][0][0].__name__, side[0]))
        cs, cr = self.curve.entry()
        return (GraphJump, cs, first[0], second[0]), cr + first[1] + second[1]

    @classmethod
    def from_row(cls, shape, cols):
        return cls(LocalCurve.from_row(shape[1], cols), SideRef.from_row(shape[2], cols),
                   SideRef.from_row(shape[3], cols))

    def sides(self):
        return self.below, self.above

    def points(self, t):
        t = np.asarray(t, dtype=float)
        return t, self.curve.value(t)

    def gradients(self, t):
        """Both sides' gradients at parameters ``t`` and the arclength weight
        ``hypot(1, curve'(t))``, from one evaluation of the ramp."""
        c = self.curve
        ramp = step_profile(c.kind)(t / c.width)
        jy = c.c0 + c.c1 * ramp[0]
        return (self.below.grad(ramp, jy), self.above.grad(ramp, jy),
                np.hypot(1.0, c.c1 * ramp[1] / c.width))

    def length_param(self) -> float:
        return self.curve.width


@dataclass(frozen=True)
class VerticalJump:
    """Vertical jump segment ``x = const`` between a left and a right cell."""

    length: float
    left: SideRef
    right: SideRef

    def entry(self) -> tuple:
        (ls, lr), (rs, rr) = self.left.entry(), self.right.entry()
        return (VerticalJump, ls, rs), (self.length,) + lr + rr

    @classmethod
    def from_row(cls, shape, cols):
        return cls(next(cols), SideRef.from_row(shape[1], cols),
                   SideRef.from_row(shape[2], cols))

    def sides(self):
        return self.left, self.right

    def points(self, t):
        t = np.asarray(t, dtype=float)
        return np.zeros_like(t), t

    def gradients(self, t):
        """Both sides' gradients at parameters ``t``, each from its own map's
        ramp at its edge, and the arclength weight 1.0."""
        return (*(s.grad(s.map.ramp(s.off_x), t) for s in self.sides()), 1.0)

    def length_param(self) -> float:
        return self.length


@dataclass(frozen=True)
class JumpGroup(_Stacked):
    """A jump curve prototype instantiated at anchors (x0, y0 + k dy), k < count.

    ``tag`` names the curve in the manifest; no integrand reads it.
    ``smooth`` marks curves across which the construction joins its pieces
    with a continuous gradient, so that both sides' gradients are the same
    floats and the jump integrand is exactly 0.0.  The jump part of the
    total variation skips them; the renderer, the manifest and
    :func:`coverage_check` treat them like any other curve.
    """

    proto: GraphJump | VerticalJump
    x0: float
    y0: float
    dy: float
    count: int
    tag: str
    smooth: bool = False


@dataclass(frozen=True)
class Part:
    """Cells and jumps sharing one transform (:data:`IDENTITY` for none)."""

    groups: tuple[CellGroup, ...]
    jumps: tuple[JumpGroup, ...]
    transform: Transform
    support: Rect

    def folded(self):
        return self.transform.Q, self.transform.b, self.transform.CL, self.transform.c


def _transform_rect(t: Transform, r: Rect) -> Rect:
    # Q is a signed permutation: opposite corners map to opposite corners.
    (ax, ay), (bx, by) = t.to_world(np.array([[r.x0, r.y0], [r.x1, r.y1]])).tolist()
    return Rect(min(ax, bx), min(ay, by), abs(bx - ax), abs(by - ay))


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

        A group is handed only the remaining points of its x-slab, base-frame
        x in ``[x0 - 2 tol, x0 + width + 2 tol]``: the second ``tol`` covers
        the rounding of ``x - x0``, so the slab holds every point the group's
        in-x test accepts, and the yields are those of testing every
        remaining point, element for element.  The slab is a mask per group,
        not a sort by x: a part has tens of groups, and NumPy's sort kernels
        would add 0.7 MB of code pages to the resident set.
        """
        tol = self._geom_tol()
        if not np.all(self.domain.contains(p, tol)):
            raise DomainError("point outside the deformation domain")
        done = np.zeros(p.shape[0], dtype=bool)
        for ip, part in enumerate(self.parts):
            sel = np.flatnonzero(~done & part.support.contains(p, tol))
            if sel.size == 0:
                continue
            q = part.transform.to_base(p[sel])
            qx = q[:, 0]
            pending = np.ones(sel.size, dtype=bool)
            for g in part.groups:
                rem = np.flatnonzero(pending & (qx >= g.x0 - 2.0 * tol)
                                     & (qx <= g.x0 + g.proto.width + 2.0 * tol))
                if rem.size == 0:
                    continue
                xl = q[rem, 0] - g.x0
                in_x = (xl >= -tol) & (xl <= g.proto.width + tol)
                if not np.any(in_x):
                    continue
                y = q[rem, 1]
                # Instance offsets stay floats: counts can pass 2**63 as
                # theta -> 1/2, where an integer cast would overflow.
                kf = np.floor((y - g.y0) / g.dy) if g.count > 1 else np.zeros(rem.size)
                count = float(g.count)
                for delta in (-1.0, 0.0, 1.0):
                    k = kf + delta
                    cand = in_x & (k >= 0.0) & (k < count) & pending[rem]
                    if not np.any(cand):
                        continue
                    yl = y - (g.y0 + k * g.dy)
                    ok = cand & g.proto.contains(xl, yl, tol)
                    if not np.any(ok):
                        continue
                    hit = rem[ok]
                    done[sel[hit]] = True
                    pending[hit] = False
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
        du = np.empty((n, 2, 2))  # the displacement gradient, until pushed forward
        owner = np.empty(n, dtype=int)
        for ip, idx, q, lx, ly, g in self._locate(p):
            u[idx] = q + g.proto.map.disp(lx, ly)
            du[idx] = g.proto.map.grad(lx, ly)
            owner[idx] = ip
        # Push each part's base values through its transform in one batch.
        for ip, part in enumerate(self.parts):
            hit = np.flatnonzero(owner == ip)
            if hit.size:
                t = part.transform
                u[hit] = t.value(u[hit])
                du[hit] = t.gradient(du[hit].reshape(-1, 4).T, np.empty((hit.size, 2, 2)))
        if single:
            return u[0], du[0]
        return u, du


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
    part = Part((group,), (), IDENTITY, rect)
    return PiecewiseDeformation(rect, (part,), meta={"label": "identity"})


def _wrap(def_: PiecewiseDeformation, t: Transform, domain: Rect) -> PiecewiseDeformation:
    """Put ``t`` outermost on every part's transform."""
    parts = tuple(Part(p.groups, p.jumps, t.around(p.transform), _transform_rect(t, p.support))
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
    t = Transform(_ID2.copy(), np.zeros(2), np.asarray(R, float), np.zeros(2), "value-rotation")
    return _wrap(def_, t, def_.domain)


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


def coverage_check(def_: PiecewiseDeformation,
                   boundary_tol: float | None = 1e-12) -> CoverageReport:
    """Verify tiling area (to 1e-9 relative), value continuity across jumps
    (to 1e-10, at 64 points of up to 8 instances per jump group) and the
    boundary trace (at 256 points).

    A jump group shared by several parts (k2's mirrored half reuses all but
    its centre lines) is checked once: the values are taken in the base
    frame, where the part's transform does not enter.

    ``boundary_tol`` of None skips the identity-trace check (single cells
    and laminates do not satisfy identity data on all four sides).
    """
    failures: list[str] = []

    area = sum(g.proto.area() * g.count for p in def_.parts for g in p.groups)
    area_res = abs(area - def_.domain.area) / def_.domain.area
    if area_res > 1e-9:
        failures.append(f"cell areas sum to {area!r}, domain area {def_.domain.area!r}")

    cont = 0.0
    seen = set()  # by id: the sides' ``conj`` hold arrays, so == does not apply
    for _, jg in def_.iter_jump_groups():
        if id(jg) in seen:
            continue
        seen.add(id(jg))
        proto = jg.proto
        span = proto.length_param()
        ts = np.linspace(0.0, span, 66)[1:-1]
        jx, jy = proto.points(ts)
        s1, s2 = proto.sides()
        # Eight instances spread from the first to the last, in Python ints:
        # counts can pass 2**63 as theta -> 1/2.
        ks = (range(jg.count) if jg.count <= 8
              else [(jg.count - 1) * i // 7 for i in range(8)])
        # A side's displacement does not depend on the anchor: one (k, m, 2)
        # block of all sampled instances per side.
        pts = jg.anchors(ks)[:, None] + np.column_stack([jx, jy])
        v1 = s1.value(pts, jx, jy)
        v2 = s2.value(pts, jx, jy)
        cont = max(cont, float(np.max(np.abs(v1 - v2))))
    if cont > 1e-10:
        failures.append(f"value mismatch {cont:.3e} across a jump curve")

    bmax = 0.0
    if boundary_tol is not None:
        pts = def_.domain.boundary_points(256)
        u, _ = def_.evaluate(pts)
        bmax = float(np.max(np.abs(u - pts)))
        if bmax > boundary_tol:
            failures.append(f"boundary trace deviates by {bmax:.3e}")

    return CoverageReport(area_res, cont, bmax, failures)


# ---------------------------------------------------------------------------
# Debug serialization
# ---------------------------------------------------------------------------


def write_manifest(def_: PiecewiseDeformation, stream) -> None:
    """Plain-text manifest, one line per group, to a stream or a path (debugging aid)."""
    if isinstance(stream, (str, bytes, os.PathLike)):
        with open(stream, "w") as fh:
            return write_manifest(def_, fh)
    d = def_.domain
    stream.write(f"domain x0={d.x0!r} y0={d.y0!r} width={d.width!r} height={d.height!r}\n")
    for meta_k in sorted(def_.meta):
        stream.write(f"meta {meta_k}={def_.meta[meta_k]!r}\n")
    for ip, part in enumerate(def_.parts):
        stream.write(f"part {ip} transforms={part.transform.name or 'none'} cells="
                     f"{sum(g.count for g in part.groups)}\n")
        for g in part.groups:
            key = g.proto.map.key()
            params = ":".join(repr(v) for v in key[1:])
            stream.write(
                f"cell part={ip} family={key[0]} params={params} "
                f"x0={g.x0!r} y0={g.y0!r} dy={g.dy!r} count={g.count} "
                f"lower={g.proto.lower.describe()} upper={g.proto.upper.describe()}\n"
            )
        for jg in part.jumps:
            stream.write(f"jump part={ip} tag={jg.tag} x0={jg.x0!r} y0={jg.y0!r} "
                         f"dy={jg.dy!r} count={jg.count}\n")
