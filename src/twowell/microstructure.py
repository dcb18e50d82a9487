"""Explicit microstructures: laminates, period-doubling cells, branched assemblies.

The global pattern on ``(0, L) x (0, H)`` keeps coarse laminate oscillations
in the centre and refines them geometrically toward the lateral boundaries:
stripe i (counted from the centre) has width ``l_i = theta^i (1-theta) L/2``
and hosts ``N 2^i`` period-doubling cells of height ``h_i = H / (2^i N)``,
whose traces on the stripe lines are the sawtooth profiles ``alpha Z_{h_i}``.
The refinement stops at the largest ``tau`` with ``h_tau <= l_tau``; a
boundary-layer stripe then glues the finest laminate to the identity data.
The right half of the domain is the mirror image (for the shear case the
mirrored half is built with the opposite shear sign so the centre traces
match).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial

from .families import AffineDisp, K2CellPiece, ScalarProfilePiece
from .piecewise import (
    IDENTITY,
    CellGroup,
    CellProto,
    GraphJump,
    JumpGroup,
    LocalCurve,
    Part,
    PiecewiseDeformation,
    Rect,
    SideRef,
    VerticalJump,
    identity_deformation,
    mirror_transform,
    rotate_90,
)
from .profiles import flat_ends
from .scaling import _check_params
from .wells import CASE_K1, CASE_K2, WellSpec

__all__ = [
    "BranchingSchedule",
    "branching_schedule",
    "ScheduleRangeError",
    "k2_cell",
    "k2_boundary_cell",
    "k1_cell",
    "k1_boundary_cell",
    "laminate",
    "horizontal_branched",
    "vertical_branched_k1",
    "branched_constructions",
    "best_construction",
]

THETA_DEFAULT = {CASE_K2: 2.0 ** -1.25, CASE_K1: 1.0 / 3.0}
K2_THETA_MIN = 2.0 ** (-4.0 / 3.0)  # k2 keeps its exponent above it (branching_schedule)

# Piece families, called as family(piece, ell, h, alpha, kind).
_K1_CELL = partial(ScalarProfilePiece, 0, "cell")
_K1_BOUNDARY = partial(ScalarProfilePiece, 0, "boundary")
_K2_CELL = partial(K2CellPiece, 1, "cell")
_K2_BOUNDARY = partial(ScalarProfilePiece, 1, "boundary")
_FAMILIES = {CASE_K1: (_K1_CELL, _K1_BOUNDARY), CASE_K2: (_K2_CELL, _K2_BOUNDARY)}

# The curves ``y = c0 + c1 g(x / ell)`` bounding the pieces of a cell, as
# (c0, c1) in eighths of its height h, bottom to top: the period-doubling
# cell, the boundary layer and a laminate period.
_CELL = ((0, 0), (1, 1), (3, 1), (5, -1), (7, -1), (8, 0))
_BOUNDARY = ((0, 0), (0, 2), (4, -2), (4, 2), (8, -2), (8, 0))
_LAMINATE = ((0, 0), (2, 0), (6, 0), (8, 0))


# ---------------------------------------------------------------------------
# Cell stacks
# ---------------------------------------------------------------------------


def _cell_stack(family, table, ell, h, alpha, kind, x0, y0, count, groups, jumps):
    """Append the groups of ``count`` cells stacked with period h from (x0, y0),
    their internal jumps and the interfaces between consecutive cells.
    Piece i of a cell is ``family(i, ell, h, alpha, kind)``, between the
    curves of rows i - 1 and i of ``table``.  Returns the prototypes.

    The top piece of one cell meets the bottom piece of the next on the same
    laminate gradient, so the interfaces between cells are ``smooth``."""
    curves = [LocalCurve(a * h / 8.0, b * h / 8.0, ell, kind) for a, b in table]
    protos = [CellProto(ell, lo, hi, family(i, ell, h, alpha, kind))
              for i, (lo, hi) in enumerate(zip(curves, curves[1:]), 1)]
    tag = protos[0].map.tag()
    groups.extend(CellGroup(p, x0, y0, h, count) for p in protos)
    jumps.extend(
        JumpGroup(GraphJump(curve, SideRef(below.map, 0.0, 0.0), SideRef(above.map, 0.0, 0.0)),
                  x0, y0, h, count, f"{tag}-b{i}")
        for i, (curve, below, above) in enumerate(zip(curves[1:], protos, protos[1:]), 1))
    if count > 1:
        jumps.append(JumpGroup(
            GraphJump(curves[0], SideRef(protos[-1].map, 0.0, h),
                      SideRef(protos[0].map, 0.0, 0.0)),
            x0, y0 + h, h, count - 1, f"{tag}-line", smooth=True))
    return protos


def _single_cell(family, table, origin, ell, h, alpha, kind, label) -> PiecewiseDeformation:
    if not (0.0 < h <= ell):
        raise ValueError(f"cell needs 0 < h <= ell, got h={h}, ell={ell}")
    groups: list[CellGroup] = []
    jumps: list[JumpGroup] = []
    _cell_stack(family, table, ell, h, alpha, kind, *origin, 1, groups, jumps)
    rect = Rect(*origin, ell, h)
    part = Part(tuple(groups), tuple(jumps), IDENTITY, rect)
    return PiecewiseDeformation(rect, (part,), meta={"label": label})


def k2_cell(origin, ell, h, alpha) -> PiecewiseDeformation:
    """Stretch-case period-doubling cell joining a (h/2)-sawtooth trace on
    the left edge to an h-sawtooth on the right, identity on top and bottom."""
    return _single_cell(_K2_CELL, _CELL, origin, ell, h, alpha, "quintic", "k2-cell")


def k2_boundary_cell(origin, ell, h, alpha) -> PiecewiseDeformation:
    """Stretch-case boundary layer: identity on three sides, h-sawtooth on
    the right edge."""
    return _single_cell(_K2_BOUNDARY, _BOUNDARY, origin, ell, h, alpha, "quintic",
                        "k2-boundary-cell")


def k1_cell(origin, ell, h, alpha, gamma_kind: str = "quintic") -> PiecewiseDeformation:
    """Shear-case period-doubling cell (horizontal displacement only)."""
    return _single_cell(_K1_CELL, _CELL, origin, ell, h, alpha, gamma_kind, "k1-cell")


def k1_boundary_cell(origin, ell, h, alpha,
                     gamma_kind: str = "quintic") -> PiecewiseDeformation:
    """Shear-case boundary layer cell."""
    return _single_cell(_K1_BOUNDARY, _BOUNDARY, origin, ell, h, alpha, gamma_kind,
                        "k1-boundary-cell")


def laminate(rect: Rect, h: float, alpha: float, case: str) -> PiecewiseDeformation:
    """Exact laminate ``u = x + alpha Z_h e`` with flat horizontal interfaces.

    The gradient lies in the wells almost everywhere, so the elastic energy
    vanishes; only the jump part of the surface energy is nonzero.  The
    rectangle height must be a multiple of the period h.
    """
    m = rect.height / h
    if abs(m - round(m)) > 1e-9 or h <= 0:
        raise ValueError("laminate needs rect.height to be a multiple of h")

    def row(i, ell, h, alpha, kind):
        slope, offset = ((alpha, 0.0), (-alpha, alpha * h / 2.0), (alpha, -alpha * h))[i - 1]
        if case == CASE_K2:
            return AffineDisp(p22=slope, v2=offset)
        return AffineDisp(p12=slope, v1=offset)

    groups: list[CellGroup] = []
    jumps: list[JumpGroup] = []
    _cell_stack(row, _LAMINATE, rect.width, h, alpha, "quintic", rect.x0, rect.y0,
                int(round(m)), groups, jumps)
    part = Part(tuple(groups), tuple(jumps), IDENTITY, rect)
    meta = {"label": "laminate", "finest_period": h, "period_axis": "y"}
    return PiecewiseDeformation(rect, (part,), meta=meta)


# ---------------------------------------------------------------------------
# Branching schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchingSchedule:
    """Geometry of one half of the branched pattern on an L x H rectangle,
    with N cells in the coarsest stripe and the finest level ``tau``.

    ``x[i] = (L/2) theta^i`` are the stripe lines, ``h[i] = H / (2^i N)``
    the oscillation periods and ``ell[i] = theta^i (1-theta) L/2`` the
    stripe widths, for ``i = 0 .. tau``.  ``degenerate`` (``tau = -1``) marks
    schedules whose very first cell would violate ``h_0 <= ell_0`` (possible
    only with overridden parameters); the assembly then consists of the
    boundary layer alone.
    """

    L: float
    H: float
    theta: float
    N: int
    tau: int
    x: tuple[float, ...]
    h: tuple[float, ...]
    ell: tuple[float, ...]

    @property
    def degenerate(self) -> bool:
        return self.tau < 0


class ScheduleRangeError(ValueError):
    """theta so close to 1/2, or H / L so small, that the cells keep
    fitting their stripes until the stripe heights leave the float range."""


def branching_schedule(case: str, alpha: float, epsilon: float, L: float, H: float,
                       theta: float | None = None,
                       N: int | None = None) -> BranchingSchedule:
    """Stripe geometry with the standard parameter choices.

    ``theta`` defaults to 2^(-5/4) (stretch case) or 1/3 (shear case); the
    oscillation count is ``N = ceil(alpha^{1/5} H / (eps^{1/5} L^{4/5}) +
    4H/L)`` for the stretch case and the 1/3-exponent analogue for shear.

    The exponent holds only where the level sums converge.  Level i has
    N 2^i cells of height h_i and width ell_i: a k2 cell costs h^5 / ell^3,
    a level (16 theta^3)^(-i); a k1 cell h^3 / ell, a level (4 theta)^(-i);
    the interfaces (2 theta)^i.  So 2^(-4/3) < theta < 1/2 for k2 and
    1/4 < theta < 1/2 for k1.  For k1, theta = 2^(-3/2) gives the local
    period exponent 2/3 and the default 1/3 gives ln 2 / ln 3.
    """
    _check_params(alpha, epsilon, L, H)
    if theta is None:
        theta = THETA_DEFAULT[case]
    if not (0.25 < theta < 0.5):
        raise ValueError("theta must lie in (1/4, 1/2)")
    if N is None:
        if case == CASE_K2:
            target = alpha ** 0.2 * H / (epsilon ** 0.2 * L ** 0.8) + 4.0 * H / L
        else:
            target = (alpha ** (1 / 3) * H / (epsilon ** (1 / 3) * L ** (2 / 3))
                      + 4.0 * H / L)
        # absorb rounding noise so integer-valued targets do not round up;
        # a target of at most 1e-9 (a thin domain) would round down to 0
        N = max(1, math.ceil(target - 1e-9 * max(1.0, target)))
    if N < 1:
        raise ValueError("N must be a positive integer")

    def h_of(i):
        return H / (2 ** i * N)

    def ell_of(i):
        return theta ** i * (1.0 - theta) * L / 2.0

    if h_of(0) > ell_of(0):
        if h_of(0) > L / 2.0:
            raise ValueError("boundary layer does not fit: H/N > L/2")
        return BranchingSchedule(L, H, theta, N, -1,
                                 (L / 2.0,), (h_of(0),), (ell_of(0),))
    tau = 0
    try:
        while h_of(tau + 1) <= ell_of(tau + 1):
            tau += 1
    except OverflowError:  # theta near 1/2, or H / L tiny: 2^i N passes the float range
        raise ScheduleRangeError(
            f"theta={theta!r}, L={L!r}, H={H!r}, N={N}: the cell height stays within the "
            "stripe width theta^i (1 - theta) L / 2 until H / (2^i N) leaves the float range "
            f"at level {tau + 1}") from None
    idx = range(tau + 1)
    return BranchingSchedule(
        L, H, theta, N, tau,
        tuple((L / 2.0) * theta ** i for i in idx),
        tuple(h_of(i) for i in idx),
        tuple(ell_of(i) for i in idx),
    )


# ---------------------------------------------------------------------------
# Global assemblies
# ---------------------------------------------------------------------------


def _edge_intervals(protos, right: bool, tol):
    """(lo, hi, proto) spans of the pieces on the left or right cell edge.

    Both ramps are exactly 0 at x = 0 and 1 at x = width, so a boundary
    ``c0 + c1 g(x / width)`` meets the edges at ``c0`` and ``c0 + c1``."""
    out = []
    for p in protos:
        lo, hi = p.lower, p.upper
        lo, hi = (lo.c0 + lo.c1, hi.c0 + hi.c1) if right else (lo.c0, hi.c0)
        if hi - lo > tol:
            out.append((lo, hi, p))
    return out


def _vertical_jump_groups(X, H, left, right, tag, smooth, mirror=None):
    """Jump segments along the line x = X between two cell stacks, each
    ``(protos, h, ell)``.

    The left stack exposes its right edge (local x = its ell); the right
    stack its left edge (local x = 0), unless ``mirror`` is given: the right
    side is then the copy, mirrored by ``mirror``, of a stack whose right
    edge lies on the line (local x = its ell).

    The segments run between the ends of both edges' pieces over one
    period, ends closer than 1e-11 period taken as the lowest of them; each
    side's pieces are walked once along with the segments.
    Both stacks expose the same laminate on the line, so with a ramp whose
    ends are flat (:func:`twowell.profiles.flat_ends`) the gradient is
    continuous across it, and the caller marks the groups ``smooth``.
    """
    (_, h_left, ell_left), (_, h_right, ell_right) = left, right
    period = max(h_left, h_right)
    tol = 1e-12 * period
    # Each edge's (start, end, proto, anchor) over one period, bottom to top.
    sides = [[(m * h + lo, m * h + hi, p, m * h) for m in range(round(period / h))
              for lo, hi, p in _edge_intervals(protos, at_right, tol)]
             for (protos, h, _), at_right in ((left, True), (right, mirror is not None))]

    # Sorting the list with its duplicates keeps the same first end of each
    # run as sorting the set of ends.
    merged = []
    for b in sorted([x for side in sides for lo, hi, _, _ in side for x in (lo, hi)]):
        if not merged or b - merged[-1] > 1e-11 * period:
            merged.append(b)
    if abs(merged[-1] - period) > 1e-11 * period:
        merged.append(period)

    count = int(round(H / period))
    redge, conj = (0.0, IDENTITY) if mirror is None else (ell_right, mirror)
    lside, rside = sides
    i = j = 0
    groups = []
    for seg_lo, seg_hi in zip(merged[:-1], merged[1:]):
        mid = 0.5 * (seg_lo + seg_hi)
        while lside[i][1] < mid:
            i += 1
        while rside[j][1] < mid:
            j += 1
        _, _, lp, l_anchor = lside[i]
        _, _, rp, r_anchor = rside[j]
        groups.append(JumpGroup(
            VerticalJump(seg_hi - seg_lo, SideRef(lp.map, ell_left, seg_lo - l_anchor),
                         SideRef(rp.map, redge, seg_lo - r_anchor, conj=conj)),
            X, seg_lo, period, count, tag, smooth))
    return groups


def _half_assembly(case, alpha, sched: BranchingSchedule, x_off, y_off, kind):
    """Cell and jump groups of the left half (0, L/2) x (0, H), in
    left-to-right build order.  Returns (groups, jumps, stripe_counts, the
    stack on the centre line as (protos, h, ell))."""
    cell_family, bd_family = _FAMILIES[case]
    tau, N = sched.tau, sched.N
    groups: list[CellGroup] = []
    jumps: list[JumpGroup] = []
    # (family, table, level, width, left edge) of the boundary layer on
    # (0, x_tau), then of the refinement stripes, finest (i = tau-1) to
    # coarsest (i = 0).  A degenerate schedule (tau = -1) holds one entry,
    # x = L/2 and h_0, which index tau reads.
    levels = [(bd_family, _BOUNDARY, tau, sched.x[tau], x_off)]
    levels += [(cell_family, _CELL, i, sched.ell[i], x_off + sched.x[i + 1])
               for i in range(tau - 1, -1, -1)]
    stacks, stripe_counts = [], []
    for family, table, i, ell, x0 in levels:
        count = N * 2 ** max(i, 0)
        protos = _cell_stack(family, table, ell, sched.h[i], alpha, kind, x0, y_off, count,
                             groups, jumps)
        stacks.append((protos, sched.h[i], ell))
        stripe_counts.append(count)

    # Vertical jump curves on the internal stripe lines x_tau, ..., x_1.
    smooth = flat_ends(kind)
    for k, (left, right) in enumerate(zip(stacks, stacks[1:])):
        jumps.extend(_vertical_jump_groups(x_off + sched.x[tau - k], sched.H, left, right,
                                           "stripe-line", smooth))
    return groups, jumps, stripe_counts, stacks[-1]


def horizontal_branched(spec: WellSpec, epsilon: float, domain: Rect,
                        theta: float | None = None, N: int | None = None,
                        gamma_kind: str = "quintic") -> PiecewiseDeformation:
    """Branched deformation on the full rectangle: left half per the
    schedule of ``domain``, right half mirrored (with flipped shear sign in
    case k1)."""
    sched = branching_schedule(spec.case, spec.alpha, epsilon,
                               domain.width, domain.height, theta=theta, N=N)
    if spec.case == CASE_K2 and gamma_kind != "quintic":
        # The k2 cell's horizontal corrector needs the quintic's derivatives.
        raise ValueError(f"case k2 admits only the quintic ramp, got {gamma_kind!r}")
    alpha = spec.alpha
    axis = domain.x0 + sched.L / 2.0

    lg, lj, stripes, ledge = _half_assembly(spec.case, alpha, sched,
                                            domain.x0, domain.y0, gamma_kind)
    if spec.case == CASE_K1:
        rg, rj, _, redge = _half_assembly(spec.case, -alpha, sched,
                                          domain.x0, domain.y0, gamma_kind)
    else:
        rg, rj, redge = lg, lj, ledge

    # Centre-line jumps: the left edge stack meets the mirrored right stack.
    conj = mirror_transform(axis)
    center = _vertical_jump_groups(axis, sched.H, ledge, redge, "centre-line",
                                   flat_ends(gamma_kind), mirror=conj)

    left_rect = Rect(domain.x0, domain.y0, sched.L / 2.0, domain.height)
    left = Part(tuple(lg), tuple(lj) + tuple(center), IDENTITY, left_rect)
    right = Part(tuple(rg), tuple(rj), conj,
                 Rect(axis, domain.y0, sched.L / 2.0, domain.height))

    lemma_cells = 2 * sum(stripes)
    meta = {
        "label": "branched-horizontal",
        "case": spec.case,
        "alpha": alpha,
        "epsilon": epsilon,
        "theta": sched.theta,
        "N": sched.N,
        "tau": sched.tau,
        "lemma_cells": lemma_cells,
        "stripe_counts": tuple(stripes),
        "finest_period": sched.h[sched.tau],
        "period_axis": "y",
        "degenerate_schedule": sched.degenerate,
    }
    return PiecewiseDeformation(domain, (left, right), meta=meta)


def vertical_branched_k1(spec: WellSpec, epsilon: float, domain: Rect,
                         theta: float | None = None, N: int | None = None,
                         gamma_kind: str = "quintic") -> PiecewiseDeformation:
    """Quarter-rotated shear-case pattern: long thin stripes along e2.

    Built on the swapped rectangle and conjugated by the coordinate swap,
    which costs an extra well misalignment of order alpha^2 in the gradient.
    """
    if spec.case != CASE_K1:
        raise ValueError("the rotated construction uses the second rank-one "
                         "connection and exists only in case k1")
    swapped = Rect(domain.y0, domain.x0, domain.height, domain.width)
    base = horizontal_branched(spec, epsilon, swapped, theta=theta, N=N,
                               gamma_kind=gamma_kind)
    out = rotate_90(base)
    out.meta["label"] = "branched-vertical"
    out.meta["period_axis"] = "x"
    return out


def branched_constructions(spec: WellSpec, epsilon: float, domain: Rect,
                           theta: float | None = None,
                           gamma_kind: str = "quintic") -> dict[str, PiecewiseDeformation]:
    """``{name: deformation}`` of the branched constructions: ``horizontal``,
    and in the shear case k1 the rotated ``vertical`` one."""
    builders = {"horizontal": horizontal_branched}
    if spec.case == CASE_K1:
        builders["vertical"] = vertical_branched_k1
    return {name: build(spec, epsilon, domain, theta=theta, gamma_kind=gamma_kind)
            for name, build in builders.items()}


def best_construction(spec: WellSpec, epsilon: float, L: float, H: float,
                      quad=None, theta: float | None = None,
                      gamma_kind: str = "quintic"):
    """Cheapest of the explicit candidates: identity, horizontal branching
    and (shear case only) the rotated vertical branching.

    Returns ``(deformation, breakdown, label)`` for the minimum measured
    total energy.  Only finite totals are compared, and each other
    candidate whose total is not finite adds a warning that names it to the
    returned breakdown.  If no total is finite, the identity is returned.
    """
    from .energy import total_energies

    domain = Rect(0.0, 0.0, L, H)
    candidates = [identity_deformation(domain),
                  *branched_constructions(spec, epsilon, domain, theta, gamma_kind).values()]
    rows = [(cand, breakdown, cand.meta.get("label", "unknown")) for cand, breakdown
            in zip(candidates, total_energies(candidates, spec, epsilon, quad))]
    finite = [r for r in rows if math.isfinite(r[1].total)]
    # min keeps the first of equal totals.
    d, b, label = min(finite, key=lambda r: r[1].total) if finite else rows[0]
    excluded = tuple(f"candidate {name} not compared: its total {other.total!r} "
                     "is not finite" for cand, other, name in rows
                     if cand is not d and not math.isfinite(other.total))
    return d, replace(b, warnings=b.warnings + excluded) if excluded else b, label
