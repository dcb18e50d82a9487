"""The per-group point locator, the per-instance continuity loop and the
stripe-line construction that ``PiecewiseDeformation._locate``,
``coverage_check`` and ``microstructure._vertical_jump_groups`` replaced,
kept as oracles: every group tests every remaining point of its part, each
sampled jump instance is evaluated on its own, and each stripe-line segment
looks its pieces up by a scan of both edges."""

import math

import numpy as np

from twowell.microstructure import _edge_intervals
from twowell.piecewise import (
    IDENTITY,
    CoverageReport,
    DomainError,
    JumpGroup,
    PiecewiseDeformation,
    SideRef,
    VerticalJump,
)
from twowell.profiles import flat_ends


def oracle_locate(self, p):
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


def oracle_coverage_check(def_, curve_samples=64, boundary_samples=256, max_instances=8,
                          area_rtol=1e-9, continuity_tol=1e-10, boundary_tol=1e-12):
    failures = []
    area = sum(g.proto.area() * g.count for p in def_.parts for g in p.groups)
    area_res = abs(area - def_.domain.area) / def_.domain.area
    if area_res > area_rtol:
        failures.append(f"cell areas sum to {area!r}, domain area {def_.domain.area!r}")
    cont = 0.0
    for part, jg in def_.iter_jump_groups():
        proto = jg.proto
        ts = np.linspace(0.0, proto.length_param(), curve_samples + 2)[1:-1]
        jx, jy = proto.points(ts)
        s1, s2 = jg.sides()
        if jg.count <= max_instances:
            ks = range(jg.count)
        else:
            last, div = jg.count - 1, max(max_instances - 1, 1)
            ks = sorted({0, last, *(last * i // div for i in range(max_instances))})
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
        u, _ = oracle_evaluate(def_, pts)
        bmax = float(np.max(np.abs(u - pts)))
        if bmax > boundary_tol:
            failures.append(f"boundary trace deviates by {bmax:.3e}")
    return CoverageReport(area_res, cont, bmax, failures)


class _OracleLocated(PiecewiseDeformation):
    _locate = oracle_locate


def _with_oracle(def_):
    return _OracleLocated(def_.domain, def_.parts, def_.meta)


def oracle_evaluate(def_, pts):
    return _with_oracle(def_).evaluate(pts)


def oracle_second_gradient(def_, pts):
    return _with_oracle(def_).second_gradient(pts)


def located(locate, def_, pts):
    """Every yield of ``locate``, in order: part, group index in its part,
    instance offsets, and the bytes of the point indices, base-frame points
    and local coordinates."""
    out = []
    for ip, idx, q, lx, ly, g in locate(def_, pts):
        gi = next(i for i, h in enumerate(def_.parts[ip].groups) if h is g)
        k = np.rint((q[:, 1] - ly - g.y0) / g.dy) if g.count > 1 else np.zeros(len(idx))
        out.append((ip, gi, k.tolist(), *(a.tobytes() for a in (idx, q, lx, ly))))
    return out


def edge_points(def_, rng, per_group=3):
    """World points on shared cell edges (``y0 + k dy`` at ``x0``, mid-width
    and ``x0 + width``) of sampled instances of every group, and on the
    seams between parts."""
    pts = []
    for part in def_.parts:
        Q, b, _, _ = part.folded()
        inv = np.linalg.inv(Q)
        for g in part.groups:
            ks = {0, g.count - 1, *rng.integers(0, g.count, per_group).tolist()}
            for k in ks:
                y = g.y0 + k * g.dy
                for x in (g.x0, g.x0 + 0.5 * g.proto.width, g.x0 + g.proto.width):
                    pts.append((np.array([x, y]) - b) @ inv.T)
        s = part.support
        t = np.linspace(0.0, 1.0, 17)
        for x in (s.x0, s.x1):
            pts.extend(np.column_stack([np.full_like(t, x), s.y0 + t * s.height]))
        for y in (s.y0, s.y1):
            pts.extend(np.column_stack([s.x0 + t * s.width, np.full_like(t, y)]))
    pts = np.array(pts)
    return pts[def_.domain.contains(pts)]


def _piece_at(intervals, period, y):
    k = math.floor(y / period + 1e-12)
    yl = y - k * period
    for lo, hi, p in intervals:
        if lo - 1e-12 * period <= yl <= hi + 1e-12 * period:
            return p, k * period
    raise RuntimeError("vertical edge profile has a gap")


def oracle_vertical_jump_groups(X, H, left_protos, h_left, ell_left, right_protos, h_right,
                                tag, right_conj=IDENTITY, right_edge_x=None):
    """The segments between the sorted set of every piece end of both edges
    over one period, each side's piece found by a scan of its edge."""
    tol = 1e-12 * max(h_left, h_right)
    period = max(h_left, h_right)
    li = _edge_intervals(left_protos, True, tol)
    redge = 0.0 if right_edge_x is None else float(right_edge_x)
    ri = _edge_intervals(right_protos, right_edge_x is not None, tol)

    breaks = set()
    for h_side, intervals in ((h_left, li), (h_right, ri)):
        for m in range(int(round(period / h_side))):
            for lo, hi, _ in intervals:
                breaks.add(m * h_side + lo)
                breaks.add(m * h_side + hi)
    merged = []
    for b in sorted(breaks):
        if not merged or b - merged[-1] > 1e-11 * period:
            merged.append(b)
    if abs(merged[-1] - period) > 1e-11 * period:
        merged.append(period)

    count = int(round(H / period))
    smooth = all(flat_ends(p.map.kind) for p in (*left_protos, *right_protos))
    groups = []
    for seg_lo, seg_hi in zip(merged[:-1], merged[1:]):
        mid = 0.5 * (seg_lo + seg_hi)
        lp, l_anchor = _piece_at(li, h_left, mid)
        rp, r_anchor = _piece_at(ri, h_right, mid)
        proto = VerticalJump(
            length=seg_hi - seg_lo,
            left=SideRef(lp.map, ell_left, seg_lo - l_anchor),
            right=SideRef(rp.map, redge, seg_lo - r_anchor, conj=right_conj),
            tag=tag,
        )
        groups.append(JumpGroup(proto, X, seg_lo, period, count, smooth))
    return groups
