"""The per-group point locator, the per-instance continuity loop, the
boundary-point loop and the stripe-line construction that
``PiecewiseDeformation._locate``, ``coverage_check``,
``Rect.boundary_points`` and ``microstructure._vertical_jump_groups``
replaced, kept as oracles: every group tests every remaining point of its
part, each sampled jump instance of every part is evaluated on its own,
each boundary point is placed by its own side test, and each stripe-line
segment looks its pieces up by a scan of both edges.

Also the second gradient of a family's map and of a deformation, which
only these tests use: the oracle behind the bulk-TV profiles of
``hess_profile`` and a finite-difference check of the families; and each
jump side's gradient from its own map's ramp, with the arclength weight
from the curve's, which ``GraphJump.gradients`` takes from one ramp."""

import math

import numpy as np

from twowell.families import K2CellPiece, ScalarProfilePiece
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
from twowell.profiles import flat_ends, step_profile


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
        s1, s2 = proto.sides()
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


def side_grad(side, jx, jy):
    """The gradient of one side of a jump at jump-local points, from its own
    map's ramp at its local x."""
    return side.grad(side.map.ramp(jx + side.off_x), jy)


def arclength_weight(proto, t):
    """``hypot(1, curve'(t))`` of a graph jump, from the curve's own ramp;
    1.0 on a vertical segment."""
    if isinstance(proto, VerticalJump):
        return 1.0
    c = proto.curve
    return np.hypot(1.0, c.c1 * step_profile(c.kind)(t / c.width)[1] / c.width)


class BoundaryPointError(ValueError):
    """Second gradients are undefined on cell boundaries."""


def oracle_hess(m, x, y):
    """D^2 u (..., 2, 2, 2) of the map ``m`` at local (x, y): zero for an
    affine map, g'' on a scalar-profile piece's bent pieces 2 and 4, and the
    k2 cell's u1 corrector on its pieces 2, 3 and 4."""
    if not isinstance(m, ScalarProfilePiece):
        x = np.asarray(x, dtype=float)
        return np.zeros(x.shape + (2, 2, 2))
    out = np.zeros(np.broadcast(np.asarray(x, float), np.asarray(y, float)).shape
                   + (2, 2, 2))
    if m.piece in (2, 4):
        out[..., m.component, 0, 0] = m._phi_xx(m.ramp(x)[2])
    if not isinstance(m, K2CellPiece) or not m.bends:
        return out
    a, h, ell = m.alpha, m.h, m.ell
    s = a * (1.0 - a)
    g, d1, d2, d3 = m.ramp(x)
    if m.piece == 3:
        out[..., 0, 0, 0] = -s * (h * h / (16.0 * np.float_power(ell, 3))) * d3
        return out
    sig, base = m._mirror(g)
    out[..., 0, 0, 0] = sig * s * (h / (4.0 * np.float_power(ell, 3))) * (
        d3 * (base - np.asarray(y, dtype=float)) + sig * (3.0 * h / 8.0) * d1 * d2)
    out[..., 0, 0, 1] = -sig * s * (h / (4.0 * ell * ell)) * d2
    out[..., 0, 1, 0] = out[..., 0, 0, 1]
    return out


def second_gradient(def_, pts):
    """Second gradient tensor (2, 2, 2) at points strictly inside a cell."""
    p = np.asarray(pts, dtype=float)
    single = p.ndim == 1
    p = np.atleast_2d(p)
    edge_tol = 1e-13 * max(def_.domain.width, def_.domain.height)
    out = np.empty((p.shape[0], 2, 2, 2))
    for ip, idx, _, lx, ly, g in def_._locate(p):
        # A negative tolerance asks for points at least edge_tol inside.
        if not np.all(g.proto.contains(lx, ly, -edge_tol)):
            raise BoundaryPointError("second gradient requested on a cell boundary")
        t = def_.parts[ip].transform
        hess = oracle_hess(g.proto.map, lx, ly)
        # (CL hess)[i] is a 2x2 matrix in (b, c); conjugate it by Q.
        out[idx] = t.Q.T @ (t.CL @ hess.reshape(-1, 2, 4)).reshape(-1, 2, 2, 2) @ t.Q
    if single:
        return out[0]
    return out


def oracle_second_gradient(def_, pts):
    return second_gradient(_with_oracle(def_), pts)


def oracle_boundary_points(rect, n):
    t = np.linspace(0.0, 4.0, n, endpoint=False)
    pts = np.empty((n, 2))
    for i, s in enumerate(t):
        side, frac = int(s), s - int(s)
        if side == 0:
            pts[i] = (rect.x0 + frac * rect.width, rect.y0)
        elif side == 1:
            pts[i] = (rect.x1, rect.y0 + frac * rect.height)
        elif side == 2:
            pts[i] = (rect.x1 - frac * rect.width, rect.y1)
        else:
            pts[i] = (rect.x0, rect.y1 - frac * rect.height)
    return pts


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


def oracle_vertical_jump_groups(X, H, left, right, tag, smooth, mirror=None):
    """The segments between the sorted set of every piece end of both edges
    over one period, each side's piece found by a scan of its edge.  The
    groups are ``smooth`` where every piece of both stacks follows a ramp
    with flat ends, whatever ``smooth`` says."""
    (left_protos, h_left, ell_left), (right_protos, h_right, ell_right) = left, right
    tol = 1e-12 * max(h_left, h_right)
    period = max(h_left, h_right)
    li = _edge_intervals(left_protos, True, tol)
    redge = 0.0 if mirror is None else float(ell_right)
    right_conj = IDENTITY if mirror is None else mirror
    ri = _edge_intervals(right_protos, mirror is not None, tol)

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
        )
        groups.append(JumpGroup(proto, X, seg_lo, period, count, tag, smooth))
    return groups
