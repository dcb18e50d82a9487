"""Tests of the benchmark itself: quick runs of every workload, and negative
controls showing that each correctness check rejects a corrupted result.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import verify  # noqa: E402
from tracer import Tracer  # noqa: E402
from twowell import fem, microstructure, piecewise  # noqa: E402
from twowell.cli import main as cli_main  # noqa: E402
from twowell.piecewise import Rect  # noqa: E402
from twowell.wells import CASE_K1, CASE_K2, WellSpec  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
UNIT = Rect(0.0, 0.0, 1.0, 1.0)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


# ---------------------------------------------------------------------------
# Quick mode and the output contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_quick_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.1",
                "--trace", str(trace), "--quick")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in want}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "minimize",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class _Mod:
    @staticmethod
    def inner(n):
        return n

    @staticmethod
    def outer(n):
        return _Mod.inner(n) if n <= 0 else _Mod.outer(n - 1)


def test_tracer_folds_recursion_and_restores():
    tr = Tracer()
    original = _Mod.outer
    tr.wrap(_Mod, "outer", "outer", lambda t, args, r: t.add("outer_n", args[0]))
    tr.wrap(_Mod, "inner", "inner")
    with tr.span("top"):
        _Mod.outer(3)
    s = tr.snapshot()
    assert s["outer_calls"] == 1 and s["inner_calls"] == 1 and s["outer_n"] == 3
    assert s["top_self_s"] <= s["top_s"] - s["outer_s"] + 1e-9
    tr.enabled = False
    _Mod.outer(1)
    tr.add("outer_n", 5)
    assert tr.snapshot()["outer_calls"] == 1 and tr.snapshot()["outer_n"] == 3
    tr.restore()
    assert _Mod.outer is original


# ---------------------------------------------------------------------------
# Negative controls: ratio_grid
# ---------------------------------------------------------------------------


def test_ratio_checks_reject_corrupted_results():
    a, L, H = 0.1, 1.0, 1.0
    ident = verify.identity_energy(CASE_K2, a, L, H)
    ok = verify.check_ratio_point(CASE_K2, a, L, H, "identity", ident, ident / 2, (), 60.0)
    assert ok == []
    assert verify.check_ratio_point(CASE_K2, a, L, H, "identity", ident * (1 + 1e-5),
                                    ident / 2, (), 60.0)
    assert verify.check_ratio_point(CASE_K1, a, L, H, "branched-horizontal",
                                    1.01 * verify.identity_energy(CASE_K1, a, L, H),
                                    0.01, (), 60.0)
    assert verify.check_ratio_point(CASE_K2, a, L, H, "identity", ident, ident * 2, (), 60.0)
    assert verify.check_ratio_point(CASE_K2, a, L, H, "identity", ident, ident / 100, (), 60.0)
    assert verify.check_ratio_point(CASE_K2, a, L, H, "identity", ident, ident / 2,
                                    ("cell quadrature hit the refinement limit",), 60.0)
    assert verify.check_tight("p", 1.0, 1.0 + 5e-10) == []
    assert verify.check_tight("p", 1.0 + 1e-8, 1.0)


# ---------------------------------------------------------------------------
# Negative controls: minimize
# ---------------------------------------------------------------------------


def test_minimize_checks_reject_corrupted_results():
    assert verify.check_trace("t", [3.0, 2.0, 2.0, 1.0]) == []
    assert verify.check_trace("t", [3.0, 2.0, 2.0 + 1e-15, 1.0])
    assert verify.check_sandwich(1.0, 2.0, 0.5) == []
    assert verify.check_sandwich(2.5, 2.0, 0.5)
    assert verify.check_sandwich(0.4, 2.0, 0.5)

    spec, eps = WellSpec(CASE_K2, 0.1), 1e-4
    mesh = fem.Mesh(12, 12, UNIT)
    rng = np.random.default_rng(0)
    vals = mesh.nodes.copy()
    vals[mesh.free_mask] += 0.01 * rng.standard_normal((mesh.n_free, 2))
    field = fem.DiscreteField(mesh, vals)
    elastic, _, _ = fem.discrete_energy(field, spec, eps)
    reported = elastic + eps * fem.exact_tv(field)
    recomputed = verify.recompute_energy(mesh.nodes, mesh.tris, vals, spec, eps)
    assert verify.check_recomputed("f", reported, recomputed) == []
    assert verify.check_recomputed("f", reported * (1 + 1e-9), recomputed)
    assert len(verify.interior_edges(mesh.tris)[0]) == len(mesh.edge_len)

    def energy(v):
        return fem.discrete_energy(fem.DiscreteField(mesh, v), spec, eps)[2]

    grad = fem.discrete_gradient(field, spec, eps)
    nodes = np.flatnonzero(mesh.free_mask)[:4]
    assert verify.fd_gradient_error(energy, grad, vals, nodes) < 1e-5
    bad = grad.copy()
    bad[nodes[1], 0] *= 1.001
    assert verify.fd_gradient_error(energy, bad, vals, nodes) > 1e-5


# ---------------------------------------------------------------------------
# Negative controls: construct_check
# ---------------------------------------------------------------------------


def test_point_checks_reject_corrupted_results():
    d = microstructure.horizontal_branched(WellSpec(CASE_K2, 0.1), 1e-3, UNIT)
    rep = piecewise.coverage_check(d)
    assert verify.check_coverage("c", rep) == []
    rep.continuity_max = 1e-9
    assert verify.check_coverage("c", rep)

    rng = np.random.default_rng(1)
    pts = rng.uniform(0.01, 0.99, (400, 2))
    u, du = d.evaluate(verify.stencil(pts, 1e-6))
    assert verify.check_gradient_fd("c", d, pts, u, du, 1e-6) == []
    bad = du.copy()
    bad[:400, 1, 0] += 1e-4
    assert verify.check_gradient_fd("c", d, pts, u, bad, 1e-6)

    edge = np.column_stack([rng.uniform(0, 1, 50), np.zeros(50)])
    ub, _ = d.evaluate(edge)
    assert verify.check_boundary_identity("c", edge, ub) == []
    assert verify.check_boundary_identity("c", edge, ub + 1e-10)


def test_file_checks_reject_corrupted_outputs(tmp_path):
    assert cli_main(["phase", "--config", str(_k1_config(tmp_path)),
                     "--out", str(tmp_path)]) == 0
    phase = tmp_path / "phase.csv"
    assert verify.check_phase_csv(phase, CASE_K1, 0.1) == []
    assert verify.check_phase_csv(phase, CASE_K2, 0.1)  # wrong label set
    lines = phase.read_text().splitlines()
    lines[1] = lines[1].replace(",A,", ",BR,")  # a point at log10(L/eps) = 0.5
    phase.write_text("\n".join(lines) + "\n")
    assert verify.check_phase_csv(phase, CASE_K1, 0.1)

    svg = tmp_path / "phase.svg"
    assert verify.check_svg(svg) == []
    svg.write_text(svg.read_text()[:-20])
    assert verify.check_svg(svg)
    other = tmp_path / "other.svg"
    other.write_text("<html></html>")
    assert verify.check_svg(other)

    assert verify.check_validate_output(0, "PASS  a: ok\nPASS  b: ok\n") == []
    assert verify.check_validate_output(0, "PASS  a: ok\nFAIL  b: off\n")
    assert verify.check_validate_output(3, "PASS  a: ok\n")


def _k1_config(tmp_path):
    cfg = tmp_path / "k1.cfg"
    cfg.write_text("case = k1\nphase_n = 41\n")
    return cfg
