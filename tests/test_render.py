"""The SVG and CSV writers against the per-instance and per-cell loops they
replaced, kept here as oracles.  The phase and CSV comparisons are on the
full output text, so a changed byte anywhere fails; the construction SVG,
which draws each group once and every further instance as a ``<use>``, is
compared shape by shape after expanding the references."""

import hashlib
import math
import xml.etree.ElementTree as ET
from dataclasses import replace

import numpy as np
import pytest

from twowell import cli
from twowell.cli import main
from twowell.microstructure import horizontal_branched, laminate, vertical_branched_k1
from twowell.piecewise import Rect, identity_deformation
from twowell.render import (
    _REGIME_COLORS,
    _WELL_COLORS,
    _fmt,
    _shade,
    construction_svg,
    phase_svg,
)
from twowell.scaling import phase_diagram
from twowell.wells import CASE_K1, CASE_K2, WellSpec, dist_to_wells


def _assert_same_text(got, want):
    """``assert got == want`` for long str or bytes outputs that fails fast.

    On a mismatch pytest would explain the failed ``==`` by diffing both
    texts, which takes minutes for a multi-megabyte SVG; this reports the
    digests and the first differing offset instead.
    """
    if got != want:
        n = min(len(got), len(want))
        i = next((k for k in range(0, n, 4096) if got[k:k + 4096] != want[k:k + 4096]), n)
        i += next((k for k, (a, b) in enumerate(zip(got[i:i + 4096], want[i:i + 4096]))
                   if a != b), 0)
        digests = [hashlib.sha256(t.encode() if isinstance(t, str) else t).hexdigest()[:16]
                   for t in (got, want)]
        pytest.fail(f"outputs differ (sha256 {digests[0]} != {digests[1]}, lengths "
                    f"{len(got)} != {len(want)}) first at offset {i}: "
                    f"{got[max(i - 40, 0):i + 40]!r} != {want[max(i - 40, 0):i + 40]!r}",
                    pytrace=False)
    assert got == want


def _oracle_construction_svg(def_, spec, width_px=800):
    """One polygon or polyline per instance, one ``_fmt`` call per
    coordinate."""
    dom = def_.domain
    sx = width_px / dom.width
    height_px = dom.height * sx
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{_fmt(height_px)}" viewBox="0 0 {width_px} {_fmt(height_px)}">',
        f'<rect width="{width_px}" height="{_fmt(height_px)}" fill="white"/>',
    ]

    def to_px(pts):
        out = np.empty_like(pts)
        out[:, 0] = (pts[:, 0] - dom.x0) * sx
        out[:, 1] = (dom.y1 - pts[:, 1]) * sx
        return out

    for part in def_.parts:
        Q, b, CL, c = part.folded()
        inv = np.linalg.inv(Q)
        for g in part.groups:
            w = g.proto.width
            npts = max(2, min(16, int(round(w / dom.width * 256))))
            xs = np.linspace(0.0, w, npts + 1)
            lo = g.proto.lower.value(xs)
            hi = g.proto.upper.value(xs)
            ring_base = np.vstack([np.column_stack([xs, lo]),
                                   np.column_stack([xs[::-1], hi[::-1]])])
            xm = np.array([0.5 * w])
            ym = 0.5 * (g.proto.lower.value(xm) + g.proto.upper.value(xm))
            du = np.eye(2) + g.proto.map.grad(xm, ym)[0]
            F = CL @ du @ Q
            wd = dist_to_wells(F, spec)
            fill = _shade(_WELL_COLORS[wd.nearest_well], wd.optimal_angle)
            for k in range(g.count):
                anchor = np.array([g.x0, g.y0 + k * g.dy])
                ring = (ring_base + anchor - b) @ inv.T
                px = to_px(ring)
                path = " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in px)
                lines.append(f'<polygon points="{path}" fill="{fill}" stroke="none"/>')
        for jg in part.jumps:
            proto = jg.proto
            ts = np.linspace(0.0, proto.length_param(), 17)
            jx, jy = proto.points(ts)
            base = np.column_stack([np.broadcast_to(jx, ts.shape),
                                    np.broadcast_to(jy, ts.shape)])
            for k in range(jg.count):
                anchor = np.array([jg.x0, jg.y0 + k * jg.dy])
                world = (base + anchor - b) @ inv.T
                px = to_px(world)
                path = " ".join(f"{_fmt(p[0])},{_fmt(p[1])}" for p in px)
                lines.append(f'<polyline points="{path}" fill="none" '
                             f'stroke="black" stroke-width="0.4"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _oracle_phase_svg(diagram, width_px=640):
    """One f-string per grid cell."""
    n_l = len(diagram.log10_L_over_eps)
    n_h = len(diagram.log10_H_over_eps)
    margin = 60
    plot = width_px - 2 * margin
    cell_w = plot / n_l
    cell_h = plot / n_h
    height_px = width_px
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width_px}" '
        f'height="{height_px}" viewBox="0 0 {width_px} {height_px}">',
        f'<rect width="{width_px}" height="{height_px}" fill="white"/>',
    ]
    for j in range(n_h):
        y = margin + plot - (j + 1) * cell_h
        for i in range(n_l):
            color = _REGIME_COLORS.get(str(diagram.regimes[j, i]), "#000000")
            x = margin + i * cell_w
            lines.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" '
                         f'width="{_fmt(cell_w + 0.5)}" height="{_fmt(cell_h + 0.5)}" '
                         f'fill="{color}"/>')
    lines.append(f'<rect x="{margin}" y="{margin}" width="{plot}" height="{plot}" '
                 f'fill="none" stroke="black"/>')
    lines.append(f'<text x="{margin + plot / 2}" y="{height_px - 15}" '
                 f'text-anchor="middle" font-size="14">log10(L/eps)</text>')
    lines.append(f'<text x="18" y="{margin + plot / 2}" text-anchor="middle" '
                 f'font-size="14" transform="rotate(-90 18 {margin + plot / 2})">'
                 f'log10(H/eps)</text>')
    lines.append(f'<text x="{margin}" y="{margin - 10}" font-size="14">'
                 f'case {diagram.case}, alpha={diagram.alpha}</text>')
    present = sorted(set(str(r) for r in diagram.regimes.ravel()))
    for k, lab in enumerate(present):
        x = margin + plot + 8
        y = margin + 18 * (k + 1)
        lines.append(f'<rect x="{x}" y="{y - 10}" width="12" height="12" '
                     f'fill="{_REGIME_COLORS.get(lab, "#000")}"/>')
        lines.append(f'<text x="{x + 16}" y="{y}" font-size="12">{lab}</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _oracle_csv(header, rows):
    """One ``format(float(x), '.17g')`` call per numeric cell."""
    out = [",".join(header) + "\n"]
    for row in rows:
        out.append(",".join(x if isinstance(x, str) else format(float(x), ".17g")
                            for x in row) + "\n")
    return "".join(out).encode()


K1, K2 = WellSpec(CASE_K1, 0.1), WellSpec(CASE_K2, 0.1)

CONSTRUCTIONS = {
    "identity": (lambda: identity_deformation(Rect(0.0, 0.0, 1.0, 1.0)), K2),
    # 1100 instances per group: more than one block of the batched writer.
    "laminate": (lambda: laminate(Rect(-0.4, 0.3, 1.7, 0.55), 0.0005, 0.2, CASE_K2), K2),
    "k1-horizontal": (lambda: horizontal_branched(K1, 1e-3, Rect(0.0, 0.0, 1.0, 1.0)), K1),
    "k1-horizontal-linear": (lambda: horizontal_branched(
        K1, 1e-3, Rect(0.0, 0.0, 2.0, 0.5), gamma_kind="linear"), K1),
    "k2-horizontal": (lambda: horizontal_branched(K2, 1e-4, Rect(0.0, 0.0, 1.0, 1.0)), K2),
    # Mirror and swap-rotate transform stacks, on a domain taller than wide.
    "k1-vertical": (lambda: vertical_branched_k1(K1, 1e-3, Rect(0.0, 0.0, 0.5, 2.0)), K1),
}


def _points(text):
    return np.array([p.split(",") for p in text.split()], dtype=float)


def _expand(svg):
    """The root's children in order, every ``<use>`` replaced by the shape it
    refers to: one (tag, attributes without id and points, points text as
    written or None for a use, defined points, translation) per element.
    Fails unless the text parses and each use refers to an id defined
    earlier."""
    root = ET.fromstring(svg)
    defined, out = {}, []
    for el in root:
        tag = el.tag.rpartition("}")[2]
        attrs = {k: v for k, v in el.attrib.items() if k not in ("id", "points")}
        if tag != "use":
            text = el.get("points")
            pts = _points(text) if text is not None else np.zeros((0, 2))
            if "id" in el.attrib:
                assert el.get("id") not in defined
                defined[el.get("id")] = (tag, attrs, pts)
            out.append((tag, attrs, text, pts, np.zeros(2)))
            continue
        href = attrs.pop("{http://www.w3.org/1999/xlink}href")
        off = np.array([float(attrs.pop("x", 0.0)), float(attrs.pop("y", 0.0))])
        assert not attrs and href[0] == "#"
        assert href[1:] in defined, f"<use> of {href} before its definition"
        tag, base_attrs, pts = defined[href[1:]]
        out.append((tag, base_attrs, None, pts, off))
    return root, out


def _assert_same_geometry(svg, oracle):
    """``svg`` draws the oracle's shapes: the same element order, tags and
    style attributes, each defined shape's points text unchanged, and every
    expanded coordinate within 1.5 units of the 6th significant digit of
    the largest of the defined point, the translation and the oracle value
    (one rounding each)."""
    root, got = _expand(svg)
    want_root, want = _expand(oracle)
    assert root.attrib == want_root.attrib
    assert len(got) == len(want)
    defined, offsets, expected = [], [], []
    for i, ((tag, attrs, text, pts, off), (wtag, wattrs, wtext, wpts, _)) in \
            enumerate(zip(got, want)):
        if tag != wtag or attrs != wattrs or len(pts) != len(wpts) \
                or (text is not None and text != wtext):
            pytest.fail(f"element {i}: <{tag} {attrs} points={text!r}> != "
                        f"<{wtag} {wattrs} points={wtext!r}>", pytrace=False)
        defined.append(pts)
        offsets.append(np.broadcast_to(off, pts.shape))
        expected.append(wpts)
    d, o, w = (np.concatenate(a) if a else np.zeros((0, 2))
               for a in (defined, offsets, expected))
    m = np.maximum(np.maximum(abs(d), abs(o)), abs(w))
    tol = 1.5 * 10.0 ** (np.floor(np.log10(np.where(m > 0.0, m, 1.0))) - 5)
    bad = np.flatnonzero((abs(d + o - w) > tol).any(axis=1))
    if bad.size:
        pytest.fail(f"{bad.size} points off; first: defined {d[bad[0]]}, offset "
                    f"{o[bad[0]]}, oracle {w[bad[0]]}", pytrace=False)


@pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
def test_construction_svg_matches_per_instance_oracle(name):
    build, spec = CONSTRUCTIONS[name]
    d = build()
    svg = construction_svg(d, spec)
    _assert_same_geometry(svg, _oracle_construction_svg(d, spec))
    groups = [g for p in d.parts for g in p.groups]
    jumps = [j for p in d.parts for j in p.jumps]
    assert svg.count("<polygon") == len(groups) and svg.count("<polyline") == len(jumps)
    assert svg.count("<use") == sum(g.count - 1 for g in groups + jumps)


def test_construction_svg_size_guard():
    # The largest construction of the construct_check benchmark: 13,970
    # cells and 23,680 jump curves, 10.1 MB when every instance was written
    # out in full.
    d = horizontal_branched(K2, 1e-5, Rect(0.0, 0.0, 1.0, 1.0))
    assert d.cell_count() == 13970
    svg = construction_svg(d, K2)
    assert len(svg.encode()) < 1_500_000
    ET.fromstring(svg)


def _first_instances(d, keep):
    """``d`` with every cell and jump group cut to its first ``keep``
    instances: as theta nears 1/2 the branched counts grow without bound."""
    def cut(groups):
        return tuple(replace(g, count=min(g.count, keep)) for g in groups)
    parts = tuple(replace(p, groups=cut(p.groups), jumps=cut(p.jumps)) for p in d.parts)
    return replace(d, parts=parts)


def test_construction_svg_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=15, deadline=None, derandomize=True,
                         database=None)
    @hypothesis.given(case=st.sampled_from([CASE_K1, CASE_K2]),
                      vertical=st.booleans(),
                      alpha=st.floats(0.05, 0.3),
                      log_eps=st.floats(-4.0, -2.0),
                      log_aspect=st.floats(math.log(0.25), math.log(4.0)),
                      theta=st.floats(0.2501, 0.4999))
    def check(case, vertical, alpha, log_eps, log_aspect, theta):
        spec = WellSpec(case, alpha)
        aspect = math.exp(log_aspect)
        dom = Rect(0.0, 0.0, math.sqrt(aspect), 1.0 / math.sqrt(aspect))
        build = vertical_branched_k1 if vertical and case == CASE_K1 else horizontal_branched
        d = _first_instances(build(spec, 10.0 ** log_eps, dom, theta=theta), 3)
        _assert_same_geometry(construction_svg(d, spec), _oracle_construction_svg(d, spec))

    check()


@pytest.mark.parametrize("case, alpha, n", [(CASE_K2, 0.1, 23), (CASE_K1, 0.1, 31),
                                             (CASE_K1, 0.3, 8)])
def test_phase_outputs_match_per_cell_writers(tmp_path, case, alpha, n):
    cfg = tmp_path / "phase.cfg"
    cfg.write_text(f"phase_n = {n}\n")
    assert main(["phase", "--config", str(cfg), "--case", case, "--alpha", repr(alpha),
                 "--out", str(tmp_path)]) == 0
    pd = phase_diagram(case, alpha, (0.5, 6.0), (0.5, 6.0), n)
    rows = [[case, alpha, ll, lh, str(pd.regimes[j, i]), pd.bound_values[j, i]]
            for j, lh in enumerate(pd.log10_H_over_eps)
            for i, ll in enumerate(pd.log10_L_over_eps)]
    header = ["case", "alpha", "log10_L_over_eps", "log10_H_over_eps", "regime",
              "bound_value"]
    _assert_same_text((tmp_path / "phase.csv").read_bytes(), _oracle_csv(header, rows))
    _assert_same_text((tmp_path / "phase.svg").read_text(), _oracle_phase_svg(pd))


def test_phase_svg_unknown_regime_falls_back_to_black():
    pd = phase_diagram(CASE_K2, 0.1, n=5)
    pd.regimes[2, 3] = "??"
    svg = phase_svg(pd)
    _assert_same_text(svg, _oracle_phase_svg(pd))
    assert 'fill="#000000"' in svg


def test_energy_sweep_and_field_csv_match_per_cell_writer(tmp_path, monkeypatch):
    written = []
    real = cli._write_csv

    def record(path, header, rows):
        written.append((path, header, [list(r) for r in rows]))
        real(path, header, rows)

    monkeypatch.setattr(cli, "_write_csv", record)
    assert main(["energy", "--case", "k1", "--epsilon", "1e-5", "--L", "2",
                 "--H", "0.5", "--out", str(tmp_path / "e")]) == 0
    main(["sweep", "--epsilons", "1e-6,1e-5,1e-4,1e-3", "--out", str(tmp_path / "s")])
    main(["minimize", "--mesh", "6,5", "--max-iter", "5", "--out", str(tmp_path / "m")])
    assert [p.name for p, _, _ in written] == ["energy.csv", "sweep.csv", "field.csv"]
    for path, header, rows in written:
        _assert_same_text(path.read_bytes(), _oracle_csv(header, rows))
