"""Deterministic SVG emitters for constructions and phase diagrams.

SVG is generated by hand: boundary curves of the cells are low-degree
polynomial graphs that render exactly as sampled polylines, and the output
stays byte-reproducible (no timestamps, no library-dependent ids).
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .piecewise import PiecewiseDeformation, Transform
from .scaling import PhaseDiagram
from .wells import WellSpec, dist_to_wells

__all__ = ["construction_svg", "phase_svg"]

_WELL_COLORS = {"A": (217, 95, 2), "B": (27, 158, 119)}

# Instance offsets formatted per array pass: bounds the transient arrays of tall stacks.
_BLOCK = 1024

_REGIME_COLORS = {
    "A": "#cccccc",
    "BR": "#1b9e77",
    "HL": "#d95f02",
    "VB1": "#7570b3",
    "VB2": "#e7298a",
    "VL": "#66a61e",
}


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _shade(base: tuple[int, int, int], angle: float) -> str:
    # Lighten by the optimal rotation angle so twinned regions are visible.
    f = 0.25 + 0.75 * (0.5 * (1.0 + math.cos(2.0 * angle)))
    r, g, b = (int(255 - (255 - c) * f) for c in base)
    return f"#{r:02x}{g:02x}{b:02x}"


def _ident(n: int) -> str:
    # Letters-only ids a, ..., z, aa, ab, ...: the <use> lines that make up
    # most of a large file stay short.
    return (_ident(n // 26 - 1) if n >= 26 else "") + chr(97 + n % 26)


def construction_svg(def_: PiecewiseDeformation, spec: WellSpec) -> str:
    """Domain colored by the nearest well of the gradient (shaded by the
    optimal rotation angle) with the jump curves drawn on top, 800 px wide.

    Each cell or jump group draws its first instance once, as a polygon or
    polyline with an id; every further instance k is a ``<use>`` of it
    translated by k times the group's step in pixels."""
    width_px = 800
    dom = def_.domain
    sx = width_px / dom.width
    height_px = dom.height * sx
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'xmlns:xlink="http://www.w3.org/1999/xlink" width="{width_px}" '
        f'height="{_fmt(height_px)}" viewBox="0 0 {width_px} {_fmt(height_px)}">',
        f'<rect width="{width_px}" height="{_fmt(height_px)}" fill="white"/>',
    ]
    ids = itertools.count()
    # Formatted <use> offset tails per (axes, step in pixels, count), shared
    # by a column's pieces, their jump curves and a mirrored part.
    offsets = {}

    def draw(group, base: np.ndarray, t: Transform, tag: str, style: str) -> None:
        # The first instance, mapped base-to-world and then to pixels.
        ident = _ident(next(ids))
        pts = t.to_world(base + group.anchors([0])[0])
        px = np.column_stack([(pts[:, 0] - dom.x0) * sx, (dom.y1 - pts[:, 1]) * sx])
        path = " ".join("%.6g,%.6g" % p for p in map(tuple, px.tolist()))
        lines.append(f'<{tag} id="{ident}" points="{path}" {style}/>')
        if group.count < 2:
            return
        # The anchor step (0, dy), a direction that Q^T alone maps, in pixels;
        # Q is a signed permutation, so one component is exactly 0: left out.
        step = np.array([0.0, group.dy]) @ t.Q * np.array([sx, -sx])
        axes = [i for i in (0, 1) if step[i] != 0.0]
        key = (tuple(axes), tuple(step[axes].tolist()), group.count)
        tails = offsets.get(key)
        if tails is None:
            tail = "".join(f' {"xy"[i]}="%.6g"' for i in axes) + "/>"
            tails = []
            for start in range(1, group.count, _BLOCK):
                k = np.arange(start, min(start + _BLOCK, group.count))
                tails.extend(map(tail.__mod__, map(tuple, (k[:, None] * step[axes]).tolist())))
            offsets[key] = tails
        head = f'<use xlink:href="#{ident}"'
        lines.append(head + ("\n" + head).join(tails))

    for part in def_.parts:
        t = part.transform
        # The gradient at each cell's centre classifies the whole cell; one
        # dist_to_wells call classifies every group of the part.
        F = np.empty((len(part.groups), 2, 2))
        for g, Fg in zip(part.groups, F):
            xm = np.array([0.5 * g.proto.width])
            ym = 0.5 * (g.proto.lower.value(xm) + g.proto.upper.value(xm))
            t.gradient(g.proto.map.grad(xm, ym).reshape(-1, 4).T, Fg[None])
        wd = dist_to_wells(F, spec)
        for g, well, angle in zip(part.groups, wd.nearest_well, wd.optimal_angle):
            w = g.proto.width
            npts = max(2, min(16, int(round(w / dom.width * 256))))
            xs = np.linspace(0.0, w, npts + 1)
            lo = g.proto.lower.value(xs)
            hi = g.proto.upper.value(xs)
            ring_base = np.vstack([np.column_stack([xs, lo]),
                                   np.column_stack([xs[::-1], hi[::-1]])])
            fill = _shade(_WELL_COLORS[well], angle)
            draw(g, ring_base, t, "polygon", f'fill="{fill}" stroke="none"')
        for jg in part.jumps:
            proto = jg.proto
            ts = np.linspace(0.0, proto.length_param(), 17)
            jx, jy = proto.points(ts)
            base = np.column_stack([np.broadcast_to(jx, ts.shape),
                                    np.broadcast_to(jy, ts.shape)])
            draw(jg, base, t, "polyline", 'fill="none" stroke="black" stroke-width="0.4"')
    # The empty last element ends the text with a newline without copying it.
    lines += ["</svg>", ""]
    return "\n".join(lines)


def phase_svg(diagram: PhaseDiagram) -> str:
    """Regime map in the log10(L/eps), log10(H/eps) plane, 640 px square."""
    width_px = 640
    n = len(diagram.log10_over_eps)  # cells per axis
    margin = 60
    plot = width_px - 2 * margin
    cell = plot / n
    height_px = width_px
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height_px}" viewBox="0 0 {width_px} {height_px}">',
        f'<rect width="{width_px}" height="{height_px}" fill="white"/>',
    ]
    # One template per grid row: x, width and height are fixed per column,
    # leaving the row's y and each cell's fill.
    row = "\n".join(f'<rect x="{_fmt(margin + i * cell)}" y="%s" '
                    f'width="{_fmt(cell + 0.5)}" height="{_fmt(cell + 0.5)}" '
                    f'fill="%s"/>' for i in range(n))
    args = [None] * (2 * n)
    for j in range(n):
        args[0::2] = [_fmt(margin + plot - (j + 1) * cell)] * n
        args[1::2] = [_REGIME_COLORS.get(str(r), "#000000") for r in diagram.regimes[j]]
        lines.append(row % tuple(args))
    lines.append(f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
                 f'fill="none" stroke="black"/>')
    lines.append(f'<text x="{margin + plot / 2}" y="{height_px - 15}" '
                 f'text-anchor="middle" font-size="14">log10(L/eps)</text>')
    lines.append(f'<text x="18" y="{margin + plot / 2}" text-anchor="middle" '
                 f'font-size="14" transform="rotate(-90 18 {margin + plot / 2})">'
                 f'log10(H/eps)</text>')
    lines.append(f'<text x="{margin}" y="{margin - 10}" font-size="14">'
                 f'case {diagram.case}, alpha={diagram.alpha}</text>')
    present = sorted(diagram.labels())
    for k, lab in enumerate(present):
        x = margin + plot + 8
        y = margin + 18 * (k + 1)
        lines.append(f'<rect x="{x}" y="{y - 10}" width="12" height="12" '
                     f'fill="{_REGIME_COLORS.get(lab, "#000")}"/>')
        lines.append(f'<text x="{x + 16}" y="{y}" font-size="12">{lab}</text>')
    lines += ["</svg>", ""]
    return "\n".join(lines)
