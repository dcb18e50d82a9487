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
from dataclasses import dataclass
from functools import partial

from .piecewise import (
    IDENTITY,
    AffineDisp,
    CellGroup,
    CellProto,
    GraphJump,
    JumpGroup,
    K2CellPiece,
    LocalCurve,
    Part,
    PiecewiseDeformation,
    Rect,
    ScalarProfilePiece,
    SideRef,
    Transform,
    VerticalJump,
    identity_deformation,
    mirror_transform,
    rotate_90,
)
from .profiles import flat_ends, sawtooth
from .wells import CASE_K1, CASE_K2, WellSpec

__all__ = [
    "BranchingSchedule",
    "branching_schedule",
    "sawtooth",
    "k2_cell",
    "k2_boundary_cell",
    "k1_cell",
    "k1_boundary_cell",
    "laminate",
    "assemble_branched",
    "vertical_branched_k1",
    "branched_constructions",
    "identity_deformation",
]

THETA_DEFAULT = {CASE_K2: 2.0 ** -1.25, CASE_K1: 1.0 / 3.0}

# Piece families, called as family(piece, ell, h, alpha, kind).
_K1_CELL = partial(ScalarProfilePiece, 0, "cell")
_K1_BOUNDARY = partial(ScalarProfilePiece, 0, "boundary")
_K2_BOUNDARY = partial(ScalarProfilePiece, 1, "boundary")
_FAMILIES = {CASE_K1: (_K1_CELL, _K1_BOUNDARY), CASE_K2: (K2CellPiece, _K2_BOUNDARY)}


# ---------------------------------------------------------------------------
# Single cells
# ---------------------------------------------------------------------------


def _cell_curves(h: float, ell: float, kind: str) -> list[LocalCurve]:
    """Boundaries of the five-piece period-doubling subdivision."""
    return [
        LocalCurve(0.0, 0.0, ell, kind),
        LocalCurve(h / 8.0, h / 8.0, ell, kind),
        LocalCurve(3.0 * h / 8.0, h / 8.0, ell, kind),
        LocalCurve(5.0 * h / 8.0, -h / 8.0, ell, kind),
        LocalCurve(7.0 * h / 8.0, -h / 8.0, ell, kind),
        LocalCurve(h, 0.0, ell, kind),
    ]


def _boundary_curves(h: float, ell: float, kind: str) -> list[LocalCurve]:
    """Boundaries of the five-piece boundary-layer subdivision."""
    return [
        LocalCurve(0.0, 0.0, ell, kind),
        LocalCurve(0.0, h / 4.0, ell, kind),
        LocalCurve(h / 2.0, -h / 4.0, ell, kind),
        LocalCurve(h / 2.0, h / 4.0, ell, kind),
        LocalCurve(h, -h / 4.0, ell, kind),
        LocalCurve(h, 0.0, ell, kind),
    ]


def _cell_protos(map_family, curves, ell, h, alpha, kind):
    protos = []
    jumps = []
    for i in range(5):
        proto = CellProto(
            width=ell,
            lower=curves[i],
            upper=curves[i + 1],
            map=map_family(i + 1, ell, h, alpha, kind),
        )
        protos.append(proto)
    tag = protos[0].map.tag()
    for i in range(4):
        jumps.append(GraphJump(
            curve=curves[i + 1],
            below=SideRef(protos[i].map, 0.0, 0.0),
            above=SideRef(protos[i + 1].map, 0.0, 0.0),
            tag=f"{tag}-b{i + 1}",
        ))
    return protos, jumps


def _single_cell(map_family, curve_fn, origin, ell, h, alpha, kind,
                 label) -> PiecewiseDeformation:
    if not (0.0 < h <= ell):
        raise ValueError(f"cell needs 0 < h <= ell, got h={h}, ell={ell}")
    curves = curve_fn(h, ell, kind)
    protos, jump_protos = _cell_protos(map_family, curves, ell, h, alpha, kind)
    x0, y0 = origin
    groups = tuple(CellGroup(p, x0, y0, 0.0, 1) for p in protos)
    jumps = tuple(JumpGroup(j, x0, y0, 0.0, 1) for j in jump_protos)
    rect = Rect(x0, y0, ell, h)
    part = Part(groups, jumps, IDENTITY, rect)
    return PiecewiseDeformation(rect, (part,), meta={"label": label})


def k2_cell(origin, ell, h, alpha) -> PiecewiseDeformation:
    """Stretch-case period-doubling cell joining a (h/2)-sawtooth trace on
    the left edge to an h-sawtooth on the right, identity on top and bottom."""
    return _single_cell(K2CellPiece, _cell_curves, origin, ell, h, alpha,
                        "quintic", "k2-cell")


def k2_boundary_cell(origin, ell, h, alpha) -> PiecewiseDeformation:
    """Stretch-case boundary layer: identity on three sides, h-sawtooth on
    the right edge."""
    return _single_cell(_K2_BOUNDARY, _boundary_curves, origin, ell, h, alpha,
                        "quintic", "k2-boundary-cell")


def k1_cell(origin, ell, h, alpha, gamma_kind: str = "quintic") -> PiecewiseDeformation:
    """Shear-case period-doubling cell (horizontal displacement only)."""
    return _single_cell(_K1_CELL, _cell_curves, origin, ell, h, alpha,
                        gamma_kind, "k1-cell")


def k1_boundary_cell(origin, ell, h, alpha,
                     gamma_kind: str = "quintic") -> PiecewiseDeformation:
    """Shear-case boundary layer cell."""
    return _single_cell(_K1_BOUNDARY, _boundary_curves, origin, ell, h, alpha,
                        gamma_kind, "k1-boundary-cell")


def laminate(rect: Rect, h: float, alpha: float, case: str) -> PiecewiseDeformation:
    """Exact laminate ``u = x + alpha Z_h e`` with flat horizontal interfaces.

    The gradient lies in the wells almost everywhere, so the elastic energy
    vanishes; only the jump part of the surface energy is nonzero.  The
    rectangle height must be a multiple of the period h.
    """
    m = rect.height / h
    if abs(m - round(m)) > 1e-9 or h <= 0:
        raise ValueError("laminate needs rect.height to be a multiple of h")
    m = int(round(m))
    w = rect.width

    def disp(p_slope, v0):
        if case == CASE_K2:
            return AffineDisp(p22=p_slope, v2=v0)
        return AffineDisp(p12=p_slope, v1=v0)

    rows = [
        (0.0, h / 4.0, disp(alpha, 0.0)),
        (h / 4.0, 3.0 * h / 4.0, disp(-alpha, alpha * h / 4.0)),
        (3.0 * h / 4.0, h, disp(alpha, -alpha * h / 4.0)),
    ]
    protos = [
        CellProto(w, LocalCurve(0.0, 0.0, w), LocalCurve(hi - lo, 0.0, w), mp)
        for lo, hi, mp in rows
    ]
    groups = tuple(
        CellGroup(proto, rect.x0, rect.y0 + lo, h, m)
        for proto, (lo, hi, mp) in zip(protos, rows)
    )
    line = LocalCurve(0.0, 0.0, w)
    jump_protos = [
        (rect.y0 + h / 4.0, m, GraphJump(line, SideRef(rows[0][2], 0.0, h / 4.0),
                                         SideRef(rows[1][2], 0.0, 0.0), "laminate-up")),
        (rect.y0 + 3.0 * h / 4.0, m, GraphJump(line, SideRef(rows[1][2], 0.0, h / 2.0),
                                               SideRef(rows[2][2], 0.0, 0.0), "laminate-down")),
    ]
    if m > 1:
        jump_protos.append(
            (rect.y0 + h, m - 1, GraphJump(line, SideRef(rows[2][2], 0.0, h / 4.0),
                                           SideRef(rows[0][2], 0.0, 0.0), "laminate-line")))
    jumps = tuple(JumpGroup(j, rect.x0, y0, h, cnt) for y0, cnt, j in jump_protos)
    part = Part(groups, jumps, IDENTITY, rect)
    meta = {"label": "laminate", "finest_period": h, "period_axis": "y"}
    return PiecewiseDeformation(rect, (part,), meta=meta)


# ---------------------------------------------------------------------------
# Branching schedule
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BranchingSchedule:
    """Geometry of one half of the branched pattern.

    ``x[i] = (L/2) theta^i`` are the stripe lines, ``h[i] = H / (2^i N)``
    the oscillation periods and ``ell[i] = theta^i (1-theta) L/2`` the
    stripe widths, for ``i = 0 .. tau``.  ``degenerate`` marks schedules
    whose very first cell would violate ``h_0 <= ell_0`` (possible only with
    overridden parameters); the assembly then consists of the boundary layer
    alone.
    """

    case: str
    alpha: float
    epsilon: float
    L: float
    H: float
    theta: float
    N: int
    tau: int
    x: tuple[float, ...]
    h: tuple[float, ...]
    ell: tuple[float, ...]
    degenerate: bool


def branching_schedule(case: str, alpha: float, epsilon: float, L: float, H: float,
                       theta: float | None = None,
                       N: int | None = None) -> BranchingSchedule:
    """Stripe geometry with the standard parameter choices.

    ``theta`` defaults to 2^(-5/4) (stretch case) or 1/3 (shear case); the
    oscillation count is ``N = ceil(alpha^{1/5} H / (eps^{1/5} L^{4/5}) +
    4H/L)`` for the stretch case and the 1/3-exponent analogue for shear.
    """
    if min(alpha, epsilon, L, H) <= 0 or alpha >= 1:
        raise ValueError("need alpha in (0,1) and positive epsilon, L, H")
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
        # absorb rounding noise so integer-valued targets do not round up
        N = math.ceil(target - 1e-9 * max(1.0, target))
    if N < 1:
        raise ValueError("N must be a positive integer")

    def h_of(i):
        return H / (2 ** i * N)

    def ell_of(i):
        return theta ** i * (1.0 - theta) * L / 2.0

    if h_of(0) > ell_of(0):
        if h_of(0) > L / 2.0:
            raise ValueError("boundary layer does not fit: H/N > L/2")
        return BranchingSchedule(case, alpha, epsilon, L, H, theta, N, -1,
                                 (L / 2.0,), (h_of(0),), (ell_of(0),), True)
    tau = 0
    while h_of(tau + 1) <= ell_of(tau + 1):
        tau += 1
    idx = range(tau + 1)
    return BranchingSchedule(
        case, alpha, epsilon, L, H, theta, N, tau,
        tuple((L / 2.0) * theta ** i for i in idx),
        tuple(h_of(i) for i in idx),
        tuple(ell_of(i) for i in idx),
        False,
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


def _edge_profile(intervals, h, reps):
    """(start, end, proto, anchor) of the pieces of an edge repeated ``reps``
    times with period h, bottom to top."""
    return [(m * h + lo, m * h + hi, p, m * h) for m in range(reps) for lo, hi, p in intervals]


def _vertical_jump_groups(X, H, left_protos, h_left, ell_left,
                          right_protos, h_right, tag,
                          right_conj: Transform = IDENTITY,
                          right_edge_x: float | None = None):
    """Jump segments along the line x = X between two cell stacks.

    The left stack exposes its right edge (local x = ell_left); the right
    stack its left edge (local x = 0) unless ``right_edge_x`` is given, in
    which case the right side is the copy of a stack whose right edge lies
    on the line (local x = right_edge_x), mirrored by ``right_conj``.

    The segments run between the ends of both edges' pieces over one
    period, ends closer than 1e-11 period taken as the lowest of them; each
    side's pieces are walked once along with the segments.
    Both stacks expose the same laminate on the line, so with a ramp whose
    ends are flat (:func:`twowell.profiles.flat_ends`) the gradient is
    continuous across it and the groups are marked ``smooth``.
    """
    tol = 1e-12 * max(h_left, h_right)
    period = max(h_left, h_right)
    redge = 0.0 if right_edge_x is None else float(right_edge_x)
    sides = [_edge_profile(_edge_intervals(protos, right, tol), h, round(period / h))
             for protos, right, h in ((left_protos, True, h_left),
                                      (right_protos, right_edge_x is not None, h_right))]

    # Sorting the list with its duplicates keeps the same first end of each
    # run as sorting the set of ends.
    merged = []
    for b in sorted([x for side in sides for lo, hi, _, _ in side for x in (lo, hi)]):
        if not merged or b - merged[-1] > 1e-11 * period:
            merged.append(b)
    if abs(merged[-1] - period) > 1e-11 * period:
        merged.append(period)

    count = int(round(H / period))
    smooth = all(flat_ends(p.map.kind) for p in (*left_protos, *right_protos))
    left, right = sides
    i = j = 0
    groups = []
    for seg_lo, seg_hi in zip(merged[:-1], merged[1:]):
        mid = 0.5 * (seg_lo + seg_hi)
        while left[i][1] < mid:
            i += 1
        while right[j][1] < mid:
            j += 1
        _, _, lp, l_anchor = left[i]
        _, _, rp, r_anchor = right[j]
        proto = VerticalJump(
            length=seg_hi - seg_lo,
            left=SideRef(lp.map, ell_left, seg_lo - l_anchor),
            right=SideRef(rp.map, redge, seg_lo - r_anchor, conj=right_conj),
            tag=tag,
        )
        groups.append(JumpGroup(proto, X, seg_lo, period, count, smooth))
    return groups


def _cell_stack(map_family, curves, ell, h, alpha, kind, x0, y0, count, groups, jumps):
    """Append the groups of ``count`` cells stacked with period h from (x0, y0),
    their internal jumps and the interfaces between consecutive cells.
    Returns the five prototypes.

    Piece 5 of one cell meets piece 1 of the next on the same laminate
    gradient, so the interfaces between cells are ``smooth``."""
    protos, jump_protos = _cell_protos(map_family, curves, ell, h, alpha, kind)
    groups.extend(CellGroup(p, x0, y0, h, count) for p in protos)
    jumps.extend(JumpGroup(j, x0, y0, h, count) for j in jump_protos)
    if count > 1:
        line = LocalCurve(0.0, 0.0, ell, kind)
        jumps.append(JumpGroup(
            GraphJump(line, SideRef(protos[4].map, 0.0, h), SideRef(protos[0].map, 0.0, 0.0),
                      f"{protos[0].map.tag()}-line"),
            x0, y0 + h, h, count - 1, smooth=True))
    return protos


def _half_assembly(case, alpha, sched: BranchingSchedule, x_off, y_off, gamma_kind):
    """Cell and jump groups of the left half (0, L/2) x (0, H), in
    left-to-right build order.  Returns (groups, jumps, stripe_counts)."""
    kind = gamma_kind if case == CASE_K1 else "quintic"
    cell_family, bd_family = _FAMILIES[case]
    H, tau, N = sched.H, sched.tau, sched.N
    groups: list[CellGroup] = []
    jumps: list[JumpGroup] = []
    stripe_counts: list[int] = []
    stripe_protos: dict[int, list[CellProto]] = {}

    # Boundary layer on (0, x_tau).  A degenerate schedule (tau = -1) holds
    # one entry, x = L/2 and h_0, which index tau reads.
    bd_ell, bd_h = sched.x[tau], sched.h[tau]
    bd_count = N * 2 ** tau if tau >= 0 else N
    bd_protos = _cell_stack(bd_family, _boundary_curves(bd_h, bd_ell, kind), bd_ell, bd_h,
                            alpha, kind, x_off, y_off, bd_count, groups, jumps)
    stripe_counts.append(bd_count)

    # Refinement stripes, finest (i = tau-1) to coarsest (i = 0).
    for i in range(tau - 1, -1, -1):
        ell_i, h_i = sched.ell[i], sched.h[i]
        x0 = x_off + sched.x[i + 1]
        count = N * 2 ** i
        stripe_protos[i] = _cell_stack(cell_family, _cell_curves(h_i, ell_i, kind), ell_i,
                                       h_i, alpha, kind, x0, y_off, count, groups, jumps)
        stripe_counts.append(count)

    # Vertical jump curves on the internal stripe lines.
    if tau >= 1:
        jumps.extend(_vertical_jump_groups(
            x_off + sched.x[tau], H, bd_protos, bd_h, bd_ell,
            stripe_protos[tau - 1], sched.h[tau - 1], "stripe-line"))
        for i in range(tau - 1, 0, -1):
            jumps.extend(_vertical_jump_groups(
                x_off + sched.x[i], H, stripe_protos[i], sched.h[i], sched.ell[i],
                stripe_protos[i - 1], sched.h[i - 1], "stripe-line"))
    edge_protos = stripe_protos[0] if tau >= 1 else bd_protos
    edge_h = sched.h[0]
    edge_ell = sched.ell[0] if tau >= 1 else bd_ell
    return groups, jumps, stripe_counts, (edge_protos, edge_h, edge_ell)


def assemble_branched(spec: WellSpec, sched: BranchingSchedule, domain: Rect,
                      gamma_kind: str = "quintic") -> PiecewiseDeformation:
    """Branched deformation on the full rectangle: left half per the
    schedule, right half mirrored (with flipped shear sign in case k1)."""
    if (abs(domain.width - sched.L) > 1e-12 * sched.L
            or abs(domain.height - sched.H) > 1e-12 * sched.H):
        raise ValueError("schedule was computed for a different rectangle")
    if spec.case != sched.case:
        raise ValueError("well case and schedule case disagree")
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
    edge_protos, edge_h, edge_ell = ledge
    center = _vertical_jump_groups(
        axis, sched.H, edge_protos, edge_h, edge_ell,
        redge[0], redge[1], "centre-line",
        right_conj=conj, right_edge_x=redge[2])

    left_rect = Rect(domain.x0, domain.y0, sched.L / 2.0, domain.height)
    left = Part(tuple(lg), tuple(lj) + tuple(center), IDENTITY, left_rect)
    right = Part(tuple(rg), tuple(rj), conj,
                 Rect(axis, domain.y0, sched.L / 2.0, domain.height))

    lemma_cells = 2 * sum(stripes)
    meta = {
        "label": "branched-horizontal",
        "case": spec.case,
        "alpha": alpha,
        "epsilon": sched.epsilon,
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


def horizontal_branched(spec: WellSpec, epsilon: float, domain: Rect,
                        theta: float | None = None, N: int | None = None,
                        gamma_kind: str = "quintic") -> PiecewiseDeformation:
    sched = branching_schedule(spec.case, spec.alpha, epsilon,
                               domain.width, domain.height, theta=theta, N=N)
    return assemble_branched(spec, sched, domain, gamma_kind=gamma_kind)


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
    out.meta.update(base.meta)
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
    total energy.
    """
    from .energy import total_energies

    domain = Rect(0.0, 0.0, L, H)
    candidates = [identity_deformation(domain),
                  *branched_constructions(spec, epsilon, domain, theta, gamma_kind).values()]
    # min keeps the first of equal totals.
    return min(((cand, breakdown, cand.meta.get("label", "unknown")) for cand, breakdown
                in zip(candidates, total_energies(candidates, spec, epsilon, quad))),
               key=lambda r: r[1].total)
