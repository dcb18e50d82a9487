"""Energy of a piecewise-analytic deformation.

``E[u] = int dist^2(Du, K) dx + eps * |D^2 u|(Omega)`` splits into three
exactly computable pieces: the elastic bulk term, the absolutely continuous
part of the total variation (Frobenius norm of the second gradient inside
cells) and the jump part (Frobenius norm of the gradient jump integrated
over the jump curves by arclength).

Cells are integrated on their graph parameterization ``(x, s) -> (x,
(1-s) lower(x) + s upper(x))`` whose Jacobian is ``upper - lower``; panels
are refined adaptively by comparing Gauss rules of order p and 2p.  All
congruent cells (translated copies of one prototype under the same
conjugation) share a single quadrature, multiplied by the instance count.

Every prototype of one term is refined in the same waves.  The branched
constructions repeat one five-piece cell with rescaled (ell, h), so their
prototypes fall into a few *shapes* (classes and discrete fields such as the
piece index and ramp kind); the panels of one shape are evaluated by one
integrand call whose float fields are per-panel columns.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .piecewise import PiecewiseDeformation, push_forward
from .wells import WellSpec, well_matrices

__all__ = ["QuadratureSpec", "EnergyBreakdown", "elastic_energy", "tv_bulk",
           "tv_jump", "total_energy"]


@dataclass(frozen=True)
class QuadratureSpec:
    base_order: int = 8
    max_refinement_depth: int = 12
    rel_tol: float = 1e-8
    line_points: int = 16

    def __post_init__(self):
        if self.base_order < 2:
            raise ValueError("base_order must be at least 2")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy split; ``total = elastic + epsilon * (tv_bulk + tv_jump)``.

    ``error_estimate`` weights the three terms' errors as ``total`` does:
    ``elastic_err + epsilon * (bulk_err + jump_err)``, where each term's
    error sums ``|fine - coarse|`` over the accepted panels of every cell or
    curve instance.  That bounds the error of the coarse order-p rule,
    while the reported values use the order-2p rule, so it overstates the
    error of ``total``, typically by orders of magnitude.
    """

    elastic: float
    tv_bulk: float
    tv_jump: float
    epsilon: float
    total: float
    error_estimate: float
    warnings: tuple[str, ...] = ()

    @staticmethod
    def combine(elastic, tv_bulk, tv_jump, epsilon, error_estimate,
                warnings=()) -> "EnergyBreakdown":
        total = elastic + epsilon * (tv_bulk + tv_jump)
        return EnergyBreakdown(elastic, tv_bulk, tv_jump, epsilon, total,
                               error_estimate, tuple(warnings))


@lru_cache(maxsize=32)
def _gauss(order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w  # on [0, 1]


# Absolute per-unit-measure floor on the Richardson error test.  Integrands
# like dist^2 at an exact well are pure rounding noise (~1e-16 from O(1)
# cancellations); without the floor the refinement loop would chase that
# noise to the depth limit.
_NOISE_FLOOR = 1e-12

# Integrand points per batched call (coarse and fine nodes together); caps
# the transient memory of one wave however many panels it refines.
_MAX_POINTS = 1 << 12


class _Accumulator:
    def __init__(self):
        self.error = 0.0
        self.warnings: list[str] = []


# ---------------------------------------------------------------------------
# Prototype shapes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))


def _flatten(obj, values: list):
    """Shape of a prototype tree: its classes and discrete fields (piece,
    component, layout, ramp kind, tag, ...).  Its float fields, arrays
    raveled, are appended to ``values`` in tree order instead."""
    if isinstance(obj, float):
        values.append(obj)
        return float
    if hasattr(obj, "__dataclass_fields__"):
        return (type(obj),) + tuple([_flatten(getattr(obj, name), values)
                                     for name in _field_names(type(obj))])
    if isinstance(obj, np.ndarray):
        values.extend(obj.ravel().tolist())
        return obj.shape
    if isinstance(obj, tuple):
        return (tuple,) + tuple([_flatten(c, values) for c in obj])
    return obj


def _rebuild(obj, values: np.ndarray, at: list):
    """``obj`` with its float fields replaced by the columns of ``values``,
    an (m, L) array laid out as :func:`_flatten` lists them, from column
    ``at[0]`` on; a float field becomes an (m, 1) column, an array field an
    (m, 1, ...) stack.  (A plain function: a recursive closure would be a
    reference cycle holding ``values`` until the cyclic collector runs.)"""
    if isinstance(obj, float):
        at[0] += 1
        return values[:, at[0] - 1:at[0]]
    if hasattr(obj, "__dataclass_fields__"):
        return type(obj)(**{name: _rebuild(getattr(obj, name), values, at)
                            for name in _field_names(type(obj))})
    if isinstance(obj, np.ndarray):
        at[0] += obj.size
        return values[:, at[0] - obj.size:at[0]].reshape((len(values), 1) + obj.shape)
    if isinstance(obj, tuple):
        return tuple([_rebuild(c, values, at) for c in obj])
    return obj


class _Shapes:
    """Prototypes grouped by shape.

    Within one group only float fields differ.  The displacement families,
    curves, jumps and conjugations compute with plain NumPy arithmetic on
    their fields, so one member whose float fields are (m, 1) columns
    evaluates m panels of m possibly different prototypes at once, each on
    its own row of nodes, with the same arithmetic as the scalar prototype.
    """

    def __init__(self, protos):
        index: dict = {}
        rows: list[list] = []
        self.templates: list = []
        self.group = np.empty(len(protos), dtype=np.intp)
        self.row = np.empty(len(protos), dtype=np.intp)
        for i, proto in enumerate(protos):
            values: list = []
            g = index.setdefault(_flatten(proto, values), len(rows))
            if g == len(rows):
                rows.append([])
                self.templates.append(proto)
            self.group[i], self.row[i] = g, len(rows[g])
            rows[g].append(values)
        # One (members, fields) matrix per group.
        self.values = [np.array(r, dtype=float).reshape(len(r), -1) for r in rows]

    def batches(self, owner: np.ndarray, points: int):
        """Yield ``(member, panel indices)`` covering every panel once: one
        group per batch, its member holding the fields of each panel's owner
        (one row per panel), at most ``_MAX_POINTS`` integrand points."""
        gid = self.group[owner]
        step = max(1, _MAX_POINTS // points)
        # Not np.unique: it imports numpy.ma, about 1 MB of resident memory.
        for g in np.flatnonzero(np.bincount(gid)).tolist():
            idx = np.flatnonzero(gid == g)
            for lo in range(0, len(idx), step):
                part = idx[lo:lo + step]
                yield _rebuild(self.templates[g], self.values[g][self.row[owner[part]]], [0]), part


# ---------------------------------------------------------------------------
# Adaptive quadrature
# ---------------------------------------------------------------------------


def _sums_by_owner(values: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    """``np.sum`` of each owner's values in panel order, for owners 0..n-1.

    ``np.bincount`` adds in index order, as ``np.sum`` does below 8 terms;
    longer runs are summed again by ``np.sum`` itself (pairwise).  No sort:
    a stable argsort alone adds 128 kB of resident code pages.
    """
    sums = np.bincount(owner, values, minlength=n)
    for k in np.flatnonzero(np.bincount(owner, minlength=n) >= 8).tolist():
        sums[k] = np.sum(values[owner == k])
    return sums


def _integrate(wave_values, roots: np.ndarray, order: int, measures: np.ndarray,
               quad: QuadratureSpec, acc: _Accumulator, what: str):
    """Adaptive Gauss integrals over the boxes ``roots``, an (n, 2d) array
    with one row of (lo, hi) pairs per axis for each of n prototypes.

    ``wave_values(panels, owner, rules)`` returns the integrals of every panel
    by both ``rules`` (Gauss nodes and weights on [0, 1] of order p and 2p);
    ``owner`` holds each panel's prototype.  All prototypes refine in the same
    waves, but every rule is per prototype: a panel is accepted when its
    order-p / order-2p Richardson difference is below its share of its
    prototype's tolerance, otherwise it is halved along every axis (children
    ordered with axis 0 fastest, stacked child-pattern-major, so each
    prototype's panels keep the order of a refinement of its own).
    ``measures`` scales the absolute noise floor.  Returns each prototype's
    total and its error estimate, the sum of ``|fine - coarse|`` over its
    accepted panels.
    """
    rules = (_gauss(order), _gauss(2 * order))
    root_size = np.prod(roots[:, 1::2] - roots[:, 0::2], axis=1)
    n = len(roots)
    totals, errors = np.zeros(n), np.zeros(n)
    panels, owner = roots, np.arange(n)
    depth = 0
    while True:
        coarse, fine = wave_values(panels, owner, rules)
        if depth == 0:
            # Each root panel's fine value sets the scale of its relative test.
            scale = np.maximum(np.abs(fine), 1e-300)
        err = np.abs(fine - coarse)
        frac = np.prod(panels[:, 1::2] - panels[:, 0::2], axis=1) / root_size[owner]
        tol = np.maximum(quad.rel_tol * scale[owner] * np.maximum(frac, 1e-6),
                         _NOISE_FLOOR * measures[owner] * frac)
        done = err <= tol
        if depth >= quad.max_refinement_depth:
            left_over = _sums_by_owner(err[~done], owner[~done], n)
            acc.warnings += [f"{what} quadrature hit the refinement limit"] * int(
                np.count_nonzero(left_over > 10.0 * quad.rel_tol * scale))
            done[:] = True
        totals += _sums_by_owner(fine[done], owner[done], n)
        errors += np.bincount(owner[done], err[done], minlength=n)
        rest, owner = panels[~done], owner[~done]
        if not len(rest):
            return totals.tolist(), errors
        lo, hi = rest[:, 0::2], rest[:, 1::2]
        mid = 0.5 * (lo + hi)
        children = []
        for upper in itertools.product((False, True), repeat=lo.shape[1]):
            up = np.array(upper[::-1])
            children.append(np.stack([np.where(up, mid, lo), np.where(up, hi, mid)],
                                     axis=2).reshape(len(rest), -1))
        panels, owner = np.vstack(children), np.tile(owner, len(children))
        depth += 1


def _integrate_cells(items, integrand, quad: QuadratureSpec, acc: _Accumulator):
    """Integral of ``integrand(item, x, y)`` over the cell of each item, on
    its graph parameterization ``(x, s)``.

    An item is a tuple whose first entry is the :class:`CellProto`; the
    integrand receives it batched (see :class:`_Shapes`) with (m, n) point
    arrays and returns (m, n) values.
    """
    shapes = _Shapes(items)
    p = quad.base_order
    npts = 5 * p * p  # coarse p x p and fine 2p x 2p nodes

    def wave_values(panels, owner, rules):
        out = np.empty((2, len(panels)))
        xs = np.concatenate([xr for xr, _ in rules])
        cuts = np.cumsum([0] + [len(xr) for xr, _ in rules]).tolist()
        for item, idx in shapes.batches(owner, npts):
            proto = item[0]
            ax, bx, as_, bs = panels[idx].T
            x = ax[:, None] + (bx - ax)[:, None] * xs
            s = as_[:, None] + (bs - as_)[:, None] * xs
            lo = proto.lower.value(x)
            hi = proto.upper.value(x)
            # Points of each rule's n x n tensor grid, rules side by side.
            X, Y = np.empty((2, len(idx), npts))
            start = 0
            for a, b in zip(cuts[:-1], cuts[1:]):
                n = b - a
                X[:, start:start + n * n] = np.repeat(x[:, a:b], n, axis=1)
                Y[:, start:start + n * n] = (
                    (1.0 - s[:, None, a:b]) * lo[:, a:b, None]
                    + s[:, None, a:b] * hi[:, a:b, None]).reshape(len(idx), -1)
                start += n * n
            vals = integrand(item, X, Y)
            start = 0
            for r, ((_, ws), a, b) in enumerate(zip(rules, cuts[:-1], cuts[1:])):
                n = b - a
                v = vals[:, start:start + n * n].reshape(len(idx), n, n)
                start += n * n
                out[r, idx] = np.einsum("mi,mj,mij->m", ws * (bx - ax)[:, None],
                                        ws * (bs - as_)[:, None],
                                        v * (hi[:, a:b] - lo[:, a:b])[:, :, None])
        return out

    roots = np.array([[0.0, it[0].width, 0.0, 1.0] for it in items])
    measures = np.array([abs(it[0].area()) for it in items])
    return _integrate(wave_values, roots, p, measures, quad, acc, "cell")


def _integrate_lines(items, spans, integrand, quad: QuadratureSpec, acc: _Accumulator):
    """Integral of ``integrand(item, t)`` over (0, span) for each item, a
    cell or jump prototype (batched as in :func:`_integrate_cells`, with
    (m, n) parameters t)."""
    shapes = _Shapes(items)
    p = max(quad.line_points, 2)

    def wave_values(ab, owner, rules):
        out = np.empty((2, len(ab)))
        xs = np.concatenate([xr for xr, _ in rules])
        cuts = np.cumsum([0] + [len(xr) for xr, _ in rules]).tolist()
        for proto, idx in shapes.batches(owner, 3 * p):
            a, b = ab[idx].T
            vals = integrand(proto, a[:, None] + (b - a)[:, None] * xs)
            for r, ((_, ws), lo, hi) in enumerate(zip(rules, cuts[:-1], cuts[1:])):
                out[r, idx] = np.einsum("mi,mi->m", ws * (b - a)[:, None], vals[:, lo:hi])
        return out

    spans = np.asarray(spans, dtype=float)
    roots = np.column_stack([np.zeros_like(spans), spans])
    return _integrate(wave_values, roots, p, spans, quad, acc, "line")


# ---------------------------------------------------------------------------
# The three terms
# ---------------------------------------------------------------------------


def _unique_integrals(keyed, integrate, acc: _Accumulator) -> float:
    """``sum(count * integral)`` over ``keyed`` = [(key, item, count)], in
    order, integrating each distinct key once; ``integrate(items)`` returns
    one value and one error estimate per item.  The errors are added to
    ``acc`` once per cell or curve instance, as the values are to the sum."""
    index: dict = {}
    items = []
    for key, item, _ in keyed:
        if key not in index:
            index[key] = len(items)
            items.append(item)
    if not items:
        return 0.0
    values, errors = integrate(items)
    total = 0.0
    for key, _, count in keyed:
        total += count * values[index[key]]
        acc.error += count * float(errors[index[key]])
    return total


def _elastic_integrand(A, B):
    def integrand(item, x, y):
        proto, CL, Q = item
        du = proto.map.grad(x, y)
        du += np.eye(2)
        F = push_forward(CL, du, Q).reshape(-1, 2, 2)
        del du  # keeps one fewer (n, 2, 2) batch alive through the kernel
        d2, _ = kernels.dist2_two_wells(F, A, B)
        return d2.reshape(x.shape)
    return integrand


def elastic_energy(def_: PiecewiseDeformation, spec: WellSpec,
                   quad: QuadratureSpec | None = None) -> float:
    """Integral of the squared well distance of the gradient."""
    quad = quad or QuadratureSpec()
    acc = _Accumulator()
    return _elastic(def_, spec, quad, acc)


def _elastic(def_, spec, quad, acc):
    A, B = well_matrices(spec)
    keyed = []
    for part in def_.parts:
        Q, _, CL, _ = part.folded()
        conj_key = (CL.tobytes(), Q.tobytes())
        keyed += [((g.proto.key(), conj_key), (g.proto, CL, Q), g.count)
                  for g in part.groups]
    return _unique_integrals(keyed, lambda items: _integrate_cells(
        items, _elastic_integrand(A, B), quad, acc), acc)


def tv_bulk(def_: PiecewiseDeformation, quad: QuadratureSpec | None = None) -> float:
    """Absolutely continuous part of |D^2 u|: cell integrals of the
    Frobenius norm of the second gradient (invariant under the isometric
    transform stacks)."""
    quad = quad or QuadratureSpec()
    acc = _Accumulator()
    return _tv_bulk(def_, quad, acc)


def _tv_bulk(def_, quad, acc):
    keyed = [(g.proto.key(), g.proto, g.count) for part in def_.parts for g in part.groups]
    return _unique_integrals(keyed, lambda protos: _tv_bulk_cells(protos, quad, acc), acc)


def _tv_bulk_cells(protos, quad: QuadratureSpec, acc: _Accumulator):
    """Cell integrals of |D^2 u|.

    All map families are affine in y at second order (``|D^2 u|^2 =
    (A(x) + B(x) y)^2 + R(x)^2``), so the y direction integrates exactly
    and only a smooth 1D x-integral is left.  A cell without curvature
    integrates to exactly 0.0 in one wave.
    """
    return _integrate_lines(protos, [p.width for p in protos], _tv_bulk_integrand, quad, acc)


def _tv_bulk_integrand(proto, x):
    A, B, R2 = proto.map.hess_profile(x)
    return _column_tv(A, B, R2, proto.lower.value(x), proto.upper.value(x))


def _column_tv(A, B, R2, lo, hi):
    """Exact ``int_lo^hi sqrt((A + B y)^2 + R2) dy`` (elementwise)."""
    A, B, R2 = np.broadcast_arrays(np.asarray(A, float), np.asarray(B, float),
                                   np.asarray(R2, float))
    lo = np.broadcast_to(np.asarray(lo, float), A.shape)
    hi = np.broadcast_to(np.asarray(hi, float), A.shape)
    u0 = A + B * lo
    u1 = A + B * hi
    R = np.sqrt(np.maximum(R2, 0.0))
    span = np.abs(B) * (hi - lo)
    scale = np.maximum(np.maximum(np.abs(u0), np.abs(u1)), R) + 1e-300
    linear = span > 1e-7 * scale

    # Midpoint value where B (hi - lo) is negligible (integrand constant).
    um = A + 0.5 * B * (lo + hi)
    const_val = (hi - lo) * np.sqrt(um * um + R2)

    with np.errstate(divide="ignore", invalid="ignore"):
        s0 = np.sqrt(u0 * u0 + R2)
        s1 = np.sqrt(u1 * u1 + R2)
        asinh_term = R2 * (np.arcsinh(np.where(R > 0, u1 / np.where(R > 0, R, 1.0), 0.0))
                           - np.arcsinh(np.where(R > 0, u0 / np.where(R > 0, R, 1.0), 0.0)))
        F = 0.5 * (u1 * s1 - u0 * s0 + np.where(R > 0, asinh_term, 0.0))
        lin_val = F / np.where(linear, B, 1.0)
    return np.where(linear, lin_val, const_val)


def tv_jump(def_: PiecewiseDeformation, quad: QuadratureSpec | None = None) -> float:
    """Jump part of |D^2 u|: arclength integrals of |Du+ - Du-| over the
    jump curves."""
    quad = quad or QuadratureSpec()
    acc = _Accumulator()
    return _tv_jump(def_, quad, acc)


def _tv_jump_integrand(proto, t):
    jx, jy = proto.points(t)
    s1, s2 = proto.sides()
    diff = (s2.grad(jx, jy) - s1.grad(jx, jy)).reshape(-1, 2, 2)
    norm = np.sqrt(np.einsum("nij,nij->n", diff, diff)).reshape(t.shape)
    return norm * proto.weight(t)


def _tv_jump(def_, quad, acc):
    keyed = [(jg.proto.key(), jg.proto, jg.count) for part in def_.parts for jg in part.jumps]
    return _unique_integrals(keyed, lambda protos: _integrate_lines(
        protos, [p.length_param() for p in protos], _tv_jump_integrand, quad, acc), acc)


def total_energy(def_: PiecewiseDeformation, spec: WellSpec, epsilon: float,
                 quad: QuadratureSpec | None = None) -> EnergyBreakdown:
    """Full breakdown ``elastic + epsilon (tv_bulk + tv_jump)``."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    quad = quad or QuadratureSpec()
    accs = [_Accumulator() for _ in range(3)]
    elastic = _elastic(def_, spec, quad, accs[0])
    bulk = _tv_bulk(def_, quad, accs[1])
    jump = _tv_jump(def_, quad, accs[2])
    error = accs[0].error + epsilon * (accs[1].error + accs[2].error)
    warnings = sorted({w for acc in accs for w in acc.warnings})
    return EnergyBreakdown.combine(elastic, bulk, jump, epsilon, error, warnings)
