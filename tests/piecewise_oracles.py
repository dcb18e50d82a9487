"""The per-group point locator and the per-instance continuity loop that
``PiecewiseDeformation._locate`` and ``coverage_check`` replaced, kept as
oracles: every group tests every remaining point of its part, and each
sampled jump instance is evaluated on its own."""

import numpy as np

from twowell.piecewise import CoverageReport, DomainError, PiecewiseDeformation


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
