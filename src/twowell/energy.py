"""Energy of a piecewise-analytic deformation.

``E[u] = int dist^2(Du, K) dx + eps * |D^2 u|(Omega)`` splits into three
exactly computable pieces: the elastic bulk term, the absolutely continuous
part of the total variation (Frobenius norm of the second gradient inside
cells) and the jump part (Frobenius norm of the gradient jump integrated
over the jump curves by arclength).

All three are 1D integrals, taken by one adaptive routine that refines
panels by comparing Gauss rules of order p and 2p (``line_points``).  A
cell ``lower(x) <= y <= upper(x)`` is integrated over x by its columns:

* the bulk TV's column integral is in closed form, because every family is
  affine in y at second order (:func:`_column_tv`);
* the elastic column is ``(upper - lower)(x) d2(F(x))``: every family's
  gradient depends on x alone, except on the k2 cell's transition pieces
  (``grad_reads_y``), whose one y-dependent entry is affine in y.  Their
  columns take the mean of d2 by a fixed ``base_order``-point Gauss rule
  across the column: d2 is analytic along a column whose nodes are all
  nearest to the same well.

The jump TV integrates ``|Du+ - Du-|`` times the arclength weight along
each curve.  Congruent cells (translated copies of one prototype under one
conjugation) share a single quadrature, multiplied by the instance count.

Every prototype of one term is refined in the same waves, across all the
deformations of one :func:`total_energies` call: the candidates of
``best_construction`` share their piece shapes, and at equal cell sizes
their prototypes, which are then integrated once.  The branched
constructions repeat one five-piece cell with rescaled (ell, h), so their
prototypes fall into a few *shapes*: each family declares its discrete
fields (class, piece index, ramp kind, conjugation matrices) and its float
row (ell, h, alpha, curve coefficients, offsets) through ``entry()``, and
the prototypes of one shape form one float matrix.  The panels of one shape
are evaluated by one integrand call on a member built from (m, 1) columns
of that matrix.  An elastic entry is a cell under the conjugation of its
part (:class:`_ConjugatedCell`), folded by the wells' mirror symmetry
(:func:`_mirror_fold`), so a batch holds one folded conjugation: in case k2
the mirrored half of a construction shares the other half's entries, and
in case k1 both halves share batches.  The elastic integrand evaluates the
ramp once per column and writes F entry by entry: a signed-permutation
conjugation (identity, mirror, swap) is a signed copy of each entry.

What is exact by structure gets its exact rule instead of the generic
refinement:

* the elastic term integrates a cell once for the conjugations (CL, Q),
  (-CL, -Q), (S CL, Q S) and (-S CL, -Q S), S = diag(-1, 1): they write F
  or S F S, and the well kernel gives d2(S F S) = d2(F) bit for bit;
* the bulk TV skips cells whose map is not curved (D^2 u = 0: the map
  does not bend, or it reads the linear ramp only through g' = 1);
* it splits a cell's root panel at the kinks its map declares
  (``kinks()``: the k2 cell's middle piece, where |g'''| has corners at
  t = (3 -+ sqrt 3) / 6, and the bent scalar-profile pieces, where |g''|
  has one at t = 1/2), so each root panel holds a smooth integrand; a
  prototype's scale and size are the sums over its roots;
* the elastic term writes the constant F of each distinct (cell,
  conjugation) entry whose map is not curved once, by the integrand's
  arithmetic, and takes its well distance d2 for all of them in one kernel
  call; such an entry integrates to d2 * area with error 0.0, and is
  skipped where d2 is 0.0;
* the jump TV skips the curves a construction marks ``smooth``, where both
  sides have the same gradient (stack lines between cells, and stripe and
  centre lines when the ramp has flat ends).

The skips and the mirror fold keep every bit (an integrand that is 0.0 at
every node integrates to 0.0 with error 0.0); the closed forms and the k2
cell's kink split moved the last bits of the values they replaced.  The
split at t = 1/2 kept them: the unsplit refinement failed its first wave
on those pieces and halved them there, into the same accepted panels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import kernels
from .piecewise import CellProto, PiecewiseDeformation, Transform
from .wells import WellSpec, well_matrices

__all__ = ["QuadratureSpec", "EnergyBreakdown", "elastic_energy", "tv_bulk",
           "tv_jump", "total_energy", "total_energies"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Settings of the one adaptive quadrature routine.

    ``line_points`` is the Gauss order p along x, and along a jump curve,
    for all three terms: a panel is accepted when its order-p and order-2p
    values agree to its share of ``rel_tol`` times its prototype's
    integral, and is halved otherwise, at most ``max_refinement_depth``
    times.  ``base_order`` is the fixed Gauss order across a column whose
    gradient depends on y (the k2 cell's transition pieces).
    """

    base_order: int = 8
    max_refinement_depth: int = 12
    rel_tol: float = 1e-8
    line_points: int = 16

    def __post_init__(self):
        if self.base_order < 2:
            raise ValueError("base_order must be at least 2")
        if self.max_refinement_depth < 0:
            raise ValueError("max_refinement_depth must be nonnegative")
        if not 0.0 < self.rel_tol < math.inf:
            raise ValueError("rel_tol must be positive and finite")
        if self.line_points < 2:
            raise ValueError("line_points must be at least 2")


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

# Integrand points per batched call (the nodes of both rules, times the
# nodes across a column where there are several); caps the transient
# memory of one wave however many panels it refines.
_MAX_POINTS = 1 << 12


# ---------------------------------------------------------------------------
# Prototype tables
# ---------------------------------------------------------------------------


class _Table:
    """Prototypes as one float matrix per shape.

    ``entries`` holds each prototype's ``(shape, row)``: its discrete and
    its float fields, as the families declare them (``entry()``).  Within
    one shape only the row differs, and ``from_row`` builds one member from
    (m, 1) columns of the matrix; the families compute with plain NumPy
    arithmetic on their fields, so that member evaluates m panels of m
    possibly different prototypes at once, each on its own row of nodes,
    with the same arithmetic as the scalar prototype.
    """

    def __init__(self, entries):
        index: dict = {}
        rows: list[list] = []
        where = []
        for shape, row in entries:
            g = index.setdefault(shape, len(rows))
            if g == len(rows):
                rows.append([])
            where.append((g, len(rows[g])))
            rows[g].append(row)
        self.shapes = list(index)
        self.group, self.row = np.array(where, dtype=np.intp).reshape(-1, 2).T
        self.values = [np.array(r, dtype=float) for r in rows]

    def columns(self, g: int, owners: np.ndarray):
        """Iterator over the (m, 1) columns of group g's rows of ``owners``."""
        return iter(self.values[g][self.row[owners]].T[..., None])

    def batches(self, owner: np.ndarray, points: np.ndarray):
        """Yield ``(shape, columns, panel indices)`` covering every panel
        once: one shape per batch, the columns of the rows of each panel's
        owner, at most ``_MAX_POINTS`` integrand points, where a panel of
        group g takes ``points[g]``."""
        gid = self.group[owner]
        # Not np.unique: it imports numpy.ma, about 1 MB of resident memory.
        for g in np.flatnonzero(np.bincount(gid)).tolist():
            idx = np.flatnonzero(gid == g)
            step = max(1, _MAX_POINTS // int(points[g]))
            for lo in range(0, len(idx), step):
                part = idx[lo:lo + step]
                yield self.shapes[g], self.columns(g, owner[part]), part


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


def _integrate(wave_values, roots: np.ndarray, owner: np.ndarray, order: int,
               measures: np.ndarray, quad: QuadratureSpec):
    """Adaptive Gauss integrals of n prototypes over their root intervals:
    ``roots`` is an (r, 2) array of (lo, hi), and ``owner`` holds each
    root's prototype.

    ``wave_values(panels, owner, rules)`` returns the integrals of every panel
    by both ``rules`` (Gauss nodes and weights on [0, 1] of order p and 2p);
    ``owner`` holds each panel's prototype.  All prototypes refine in the same
    waves, but every rule is per prototype: a panel is accepted when its
    order-p / order-2p Richardson difference is below its share of its
    prototype's tolerance, otherwise it is halved (all left halves, then all
    right halves, so each prototype's panels keep the order of a refinement
    of its own).  A prototype's scale is the sum of its roots' wave-0 fine
    values, and its size the sum of their lengths; with a single root, both
    are that root's own values, bit for bit.
    ``measures`` (one per prototype) scales the absolute noise floor.
    Returns each prototype's total, its error estimate (the sum of
    ``|fine - coarse|`` over its accepted panels) and whether it hit the
    depth limit: panels still above tolerance at ``max_refinement_depth``
    whose errors sum to more than ten times its tolerance.
    """
    rules = (_gauss(order), _gauss(2 * order))
    n = len(measures)
    root_size = np.bincount(owner, roots[:, 1] - roots[:, 0], minlength=n)
    totals, errors = np.zeros(n), np.zeros(n)
    hit = np.zeros(n, dtype=bool)
    panels = roots
    depth = 0
    while True:
        coarse, fine = wave_values(panels, owner, rules)
        if depth == 0:
            # The roots' fine values set the scale of each prototype's relative test.
            scale = np.maximum(np.abs(_sums_by_owner(fine, owner, n)), 1e-300)
        err = np.abs(fine - coarse)
        frac = (panels[:, 1] - panels[:, 0]) / root_size[owner]
        tol = np.maximum(quad.rel_tol * scale[owner] * np.maximum(frac, 1e-6),
                         _NOISE_FLOOR * measures[owner] * frac)
        done = err <= tol
        if depth >= quad.max_refinement_depth:
            left_over = _sums_by_owner(err[~done], owner[~done], n)
            hit = left_over > 10.0 * quad.rel_tol * scale
            done[:] = True
        totals += _sums_by_owner(fine[done], owner[done], n)
        errors += np.bincount(owner[done], err[done], minlength=n)
        rest, owner = panels[~done], owner[~done]
        if not len(rest):
            return totals.tolist(), errors, hit
        lo, hi = rest.T
        mid = 0.5 * (lo + hi)
        panels = np.column_stack([np.concatenate([lo, mid]), np.concatenate([mid, hi])])
        owner = np.tile(owner, 2)
        depth += 1


def _integrate_lines(entries, edges, integrand, quad: QuadratureSpec, measures=None,
                     across=None):
    """Integral of ``integrand(proto, t)`` over (edges[0], edges[-1]) for
    each table entry of a cell or jump prototype (its shape led by the
    class, which builds the member with (m, 1) float columns; (m, n)
    parameters t).  ``edges`` lists each prototype's increasing root panel
    edges: its ends and the kinks of its integrand between them.
    ``measures`` scales each prototype's noise floor (by default the length
    of its interval).  ``across`` gives the integrand points each prototype
    evaluates per parameter node (by default 1); it sizes the batches, and
    is the same for all the prototypes of one shape."""
    table = _Table(entries)
    p = quad.line_points
    points = np.full(len(table.shapes), 3 * p)
    if across is not None:
        points[table.group] = 3 * p * np.asarray(across)

    def wave_values(ab, owner, rules):
        out = np.empty((2, len(ab)))
        xs = np.concatenate([xr for xr, _ in rules])
        cuts = np.cumsum([0] + [len(xr) for xr, _ in rules]).tolist()
        for shape, cols, idx in table.batches(owner, points):
            a, b = ab[idx].T
            vals = integrand(shape[0].from_row(shape, cols), a[:, None] + (b - a)[:, None] * xs)
            for r, ((_, ws), lo, hi) in enumerate(zip(rules, cuts[:-1], cuts[1:])):
                out[r, idx] = np.einsum("mi,mi->m", ws * (b - a)[:, None], vals[:, lo:hi])
        return out

    roots = np.array([(a, b) for e in edges for a, b in zip(e[:-1], e[1:])], dtype=float)
    owner = np.repeat(np.arange(len(edges)), [len(e) - 1 for e in edges])
    if measures is None:
        measures = [e[-1] - e[0] for e in edges]
    return _integrate(wave_values, roots, owner, p, np.array(measures, dtype=float), quad)


# ---------------------------------------------------------------------------
# The three terms
# ---------------------------------------------------------------------------


def _unique_integrals(keyed, integrate, what: str) -> list[tuple[float, float, tuple]]:
    """``(sum(count * integral), sum(count * error), warnings)`` for each
    deformation's list ``keyed`` = [(entry, item, count)], summed in that
    list's order.

    Each distinct table entry ``(shape, row)`` of all the deformations is
    integrated once: ``integrate(entries, items)`` returns one value, one
    error estimate and one depth-limit flag per item.  A deformation gets
    the ``what`` quadrature warning when one of its own entries hit the
    limit.
    """
    index: dict = {}
    entries, items = [], []
    for entry, item, _ in itertools.chain.from_iterable(keyed):
        if entry not in index:
            index[entry] = len(items)
            entries.append(entry)
            items.append(item)
    if not items:
        return [(0.0, 0.0, ())] * len(keyed)
    values, errors, hit = integrate(entries, items)
    errors, hit = errors.tolist(), hit.tolist()
    out = []
    for own in keyed:
        total = error = 0.0
        warned = False
        for entry, _, count in own:
            i = index[entry]
            total += count * values[i]
            error += count * errors[i]
            warned = warned or hit[i]
        out.append((total, error,
                    (f"{what} quadrature hit the refinement limit",) if warned else ()))
    return out


@dataclass(frozen=True)
class _ConjugatedCell:
    """The member of an elastic table entry ``((_ConjugatedCell, cell shape,
    conjugation shape), cell row)``: a cell under the conjugation of its
    part.  The conjugation is part of the shape, so a batch holds one."""

    cell: CellProto
    conj: Transform

    @classmethod
    def from_row(cls, shape, cols):
        return cls(CellProto.from_row(shape[1], cols), Transform.from_row(shape[2]))


def _elastic_integrand(A, B, base_order: int):
    s, w = _gauss(base_order)

    def integrand(member, x):
        """``(upper - lower)(x)`` times the mean of d2 across the column."""
        cell = member.cell
        ramp = cell.map.ramp(x)
        lo, hi = cell.bounds(x, ramp)
        across = cell.map.grad_reads_y
        # The column's s-nodes go on a leading axis, which the (m, 1) fields
        # and the (m, n) ramp broadcast against; any y will do otherwise.
        y = (1.0 - s)[:, None, None] * lo + s[:, None, None] * hi if across else x
        F = member.conj.gradient(cell.map.grad_entries(ramp, y), np.empty(y.shape + (2, 2)))
        del ramp  # keeps it out of the kernel's peak memory
        d2, _ = kernels.dist2_two_wells(F.reshape(-1, 2, 2), A, B)
        d2 = d2.reshape(y.shape)
        if across:
            d2 = np.einsum("k,kmn->mn", w, d2)
        return (hi - lo) * d2
    return integrand


def elastic_energy(def_: PiecewiseDeformation, spec: WellSpec,
                   quad: QuadratureSpec | None = None) -> float:
    """Integral of the squared well distance of the gradient."""
    return _elastic([def_], spec, quad or QuadratureSpec())[0][0]


def _mirror_fold(conj: tuple) -> tuple:
    """The largest of the four conjugation shapes ``(CL, Q)``, ``(-CL, -Q)``,
    ``(S CL, Q S)`` and ``(-S CL, -Q S)`` with S = diag(-1, 1), which give
    every F the same d2 bit for bit, so that they key one elastic entry.

    The first two write the same F, the last two F with its off-diagonal
    entries negated, S F S.  Both well pairs have d2(S F S) = d2(F): in
    case k2 S fixes each well, and the kernel's q of either well changes
    sign exactly while its p keeps its value; in case k1 S swaps the
    wells, and A's terms of S F S are exactly B's terms of F.  Entries are
    negated as ``0.0 - v``, so a zero stays +0.0.  The largest folds the
    identity and the plain mirror to the identity."""
    def neg(m, keep=()):
        return tuple(v if i in keep else 0.0 - v for i, v in enumerate(m))

    CL, Q = conj
    # S CL negates CL's first row, Q S negates Q's first column.
    SCL, QS = neg(CL, keep=(2, 3)), neg(Q, keep=(1, 3))
    return max(conj, (neg(CL), neg(Q)), (SCL, QS), (neg(SCL), neg(QS)))


def _elastic(defs, spec, quad):
    A, B = well_matrices(spec)
    keyed = []
    for def_ in defs:
        own = []
        for part in def_.parts:
            conj = _mirror_fold(part.transform.entry()[0])
            for g in part.groups:
                shape, row = g.proto.entry()
                own.append((((_ConjugatedCell, shape, conj), row), g.proto, g.count))
        keyed.append(own)
    d2 = _flat_dist2(dict.fromkeys(entry for own in keyed for entry, proto, _ in own
                                   if not proto.map.curved), A, B)
    keyed = [[k for k in own if d2.get(k[0]) != 0.0] for own in keyed]
    integrand = _elastic_integrand(A, B, quad.base_order)

    def integrate(entries, protos):
        # A constant gradient integrates to d2 * area, exactly up to rounding.
        values = np.array([d2[e] * p.area() if e in d2 else 0.0
                           for e, p in zip(entries, protos)])
        errors, hit = np.zeros(len(entries)), np.zeros(len(entries), dtype=bool)
        rest = [i for i, e in enumerate(entries) if e not in d2]
        if rest:
            cells = [protos[i] for i in rest]
            # d2's rounding noise is per unit area: so is the noise floor.
            values[rest], errors[rest], hit[rest] = _integrate_lines(
                [entries[i] for i in rest], [(0.0, p.width) for p in cells], integrand, quad,
                measures=[abs(p.area()) for p in cells],
                across=[quad.base_order if p.map.grad_reads_y else 1 for p in cells])
        return values.tolist(), errors, hit

    return _unique_integrals(keyed, integrate, "cell")


def _flat_dist2(flat, A, B) -> dict:
    """{entry: d2} for the elastic entries ``flat`` of cells whose map is
    not curved: the squared well distance of their constant gradient, in
    one kernel call.

    The F of the entries of one shape (cell shape and conjugation) are
    written at once from (m, 1) columns of their rows, by the integrand's
    arithmetic, and the kernel is pointwise, so this is the integrand's
    value at every node; where it is exactly 0.0 the integral and its error
    estimate are exactly 0.0.
    """
    if not flat:
        return {}
    shapes: dict = {}
    for entry in flat:
        shapes.setdefault(entry[0], []).append(entry)
    F = np.empty((len(flat), 2, 2))
    keys = []
    for (_, cell_shape, conj), entries in shapes.items():
        cols = np.array([row for _, row in entries]).T[..., None]
        map_ = CellProto.from_row(cell_shape, iter(cols)).map
        out = F[len(keys):len(keys) + len(entries), None]
        Transform.from_row(conj).gradient(map_.grad_entries(map_.ramp(0.0), 0.0), out)
        keys += entries
    d2, _ = kernels.dist2_two_wells(F, A, B)
    return dict(zip(keys, d2.tolist()))


def tv_bulk(def_: PiecewiseDeformation, quad: QuadratureSpec | None = None) -> float:
    """Absolutely continuous part of |D^2 u|: cell integrals of the
    Frobenius norm of the second gradient (invariant under the isometric
    transforms)."""
    return _tv_bulk([def_], quad or QuadratureSpec())[0][0]


def _tv_bulk(defs, quad):
    # A map that is not curved has D^2 u = 0: its column integral is 0.0.
    keyed = [[(g.proto.entry(), g.proto, g.count) for part in def_.parts
              for g in part.groups if g.proto.map.curved] for def_ in defs]
    return _unique_integrals(keyed, lambda entries, protos: _integrate_lines(
        entries, [(0.0, *p.map.kinks(), p.width) for p in protos], _tv_bulk_integrand,
        quad), "line")


def _tv_bulk_integrand(proto, x):
    """|D^2 u| integrated over the cell's column at x.

    All map families are affine in y at second order (``|D^2 u|^2 =
    (A(x) + B(x) y)^2 + R(x)^2``), so the y direction integrates exactly
    and only a smooth 1D x-integral is left.  :func:`_tv_bulk` passes
    only cells whose map is curved; the others have D^2 u = 0.
    """
    ramp = proto.map.ramp(x)
    A, B, R2 = proto.map.hess_profile(x, ramp)
    lo, hi = proto.bounds(x, ramp)
    del ramp  # keeps it out of the closed form's peak memory
    return _column_tv(A, B, R2, lo, hi)


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
    return _tv_jump([def_], quad or QuadratureSpec())[0][0]


def _tv_jump_integrand(proto, t):
    jx, jy = proto.points(t)
    s1, s2 = proto.sides()
    diff = (s2.grad(jx, jy) - s1.grad(jx, jy)).reshape(-1, 2, 2)
    norm = np.sqrt(np.einsum("nij,nij->n", diff, diff)).reshape(t.shape)
    return norm * proto.weight(t)


def _tv_jump(defs, quad):
    # Across a smooth curve both sides give the same gradient: the jump is 0.0.
    keyed = [[(jg.proto.entry(), jg.proto, jg.count) for part in def_.parts
              for jg in part.jumps if not jg.smooth] for def_ in defs]
    return _unique_integrals(keyed, lambda entries, protos: _integrate_lines(
        entries, [(0.0, p.length_param()) for p in protos], _tv_jump_integrand, quad),
        "line")


def total_energies(defs: list[PiecewiseDeformation], spec: WellSpec, epsilon: float,
                   quad: QuadratureSpec | None = None) -> list[EnergyBreakdown]:
    """Breakdown ``elastic + epsilon (tv_bulk + tv_jump)`` of each deformation.

    Each term integrates the distinct cells or jump curves of all the
    deformations in one refinement loop, so an entry they share is
    integrated once; every breakdown, its error estimate and its warnings
    included, is the one its deformation gets on its own.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    quad = quad or QuadratureSpec()
    out = []
    for (elastic, e_err, e_warn), (bulk, b_err, b_warn), (jump, j_err, j_warn) in zip(
            _elastic(defs, spec, quad), _tv_bulk(defs, quad), _tv_jump(defs, quad)):
        out.append(EnergyBreakdown.combine(elastic, bulk, jump, epsilon,
                                           e_err + epsilon * (b_err + j_err),
                                           sorted({*e_warn, *b_warn, *j_warn})))
    return out


def total_energy(def_: PiecewiseDeformation, spec: WellSpec, epsilon: float,
                 quad: QuadratureSpec | None = None) -> EnergyBreakdown:
    """Full breakdown ``elastic + epsilon (tv_bulk + tv_jump)``."""
    return total_energies([def_], spec, epsilon, quad)[0]
