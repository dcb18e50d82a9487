import subprocess
import sys

import pytest

from twowell import cli
from twowell.cli import ConfigError, main, parse_config_file
from twowell.microstructure import horizontal_branched
from twowell.piecewise import Rect
from twowell.wells import WellSpec


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "twowell", *args],
                          capture_output=True, text=True)


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("""
# comment
case = k1
alpha = 0.2   # inline comment
mesh = 32,24
epsilons = 1e-6, 1e-5
""")
    values = parse_config_file(str(cfg))
    assert values == {"case": "k1", "alpha": 0.2, "mesh": (32, 24),
                      "epsilons": (1e-6, 1e-5)}


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key = 5\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(cfg))


def test_config_bad_values(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha = 2.0\n")
    assert main(["energy", "--config", str(cfg)]) == 2
    cfg.write_text("gamma = linear\ncase = k2\n")
    assert main(["energy", "--config", str(cfg)]) == 2
    for text in ("quad_base_order = 1\n", "quad_rel_tol = 0\n", "phase_n = 1\n",
                 "epsilons = 1e-6, 0, 1e-4, 1e-3\n", "mesh = 1,8\n", "theta = 0.6\n",
                 "quad_line_points = 1\n", "quad_max_depth = -2\n"):
        cfg.write_text(text)
        assert main(["sweep", "--config", str(cfg)]) == 2, text
    for argv in (["minimize", "--mesh", "8"], ["minimize", "--mesh", "a,b"],
                 ["sweep", "--epsilons", "1e-6,x"], ["energy", "--theta", "0.2"],
                 ["validate", "--seed", "-1"]):
        assert main(argv + ["--out", str(tmp_path / "unused")]) == 2, argv
    assert not (tmp_path / "unused").exists()


@pytest.mark.parametrize("argv, line", [
    ("energy --epsilon inf", ""),
    ("energy --epsilon nan", ""),
    ("energy --L inf", ""),
    ("energy --H nan", ""),
    ("energy --alpha nan", ""),
    ("energy --alpha inf", ""),
    ("sweep", "epsilons = 1e-7, 1e-6, inf, 1e-4"),
    ("sweep", "epsilons = 1e-7, nan, 1e-5, 1e-4"),
    ("energy", "quad_rel_tol = nan"),
    ("energy", "quad_rel_tol = inf"),
    ("minimize", "huber_delta = 0"),
    ("minimize", "huber_delta = -1"),
    ("minimize", "huber_delta = nan"),
    ("minimize", "huber_delta = inf"),
    ("minimize --max-iter 0", ""),
    ("minimize --max-iter -3", ""),
])
def test_config_rejects_nonfinite_and_degenerate_values(tmp_path, argv, line):
    # Each was accepted once: a NaN or infinite energy reported with exit 0,
    # a ValueError traceback (exit 1), a quadrature that never returns, or
    # an empty iteration budget reported as non-convergence (exit 4).
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(argv.split() + ["--config", str(cfg), "--out", str(tmp_path / "unused")]) == 2
    assert not (tmp_path / "unused").exists()


def test_internal_errors_are_not_config_errors(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("library bug")

    monkeypatch.setattr(cli, "best_construction", broken)
    with pytest.raises(ValueError, match="library bug"):
        main(["energy", "--out", str(tmp_path)])
    script = ("import sys, twowell.cli as c\n"
              "def broken(*a, **k): raise ValueError('library bug')\n"
              "c.best_construction = broken\n"
              "sys.exit(c.main(['energy', '--out', sys.argv[1]]))\n")
    r = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                       capture_output=True, text=True)
    assert r.returncode == 1
    assert "Traceback" in r.stderr and "library bug" in r.stderr
    assert "config error" not in r.stderr


def test_energy_csv_schema_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["energy", "--case", "k2", "--alpha", "0.1",
                   "--epsilon", "1e-5", "--out", str(out)])
        assert rc == 0
    t1 = (out1 / "energy.csv").read_bytes()
    t2 = (out2 / "energy.csv").read_bytes()
    assert t1 == t2
    header = t1.decode().splitlines()[0]
    assert header == ("case,alpha,epsilon,L,H,construction,elastic,tv_bulk,"
                      "tv_jump,total,bound,ratio")
    row = t1.decode().splitlines()[1].split(",")
    assert row[0] == "k2" and row[5] == "branched-horizontal"
    assert float(row[11]) > 1.0


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("case = k1\nalpha = 0.3\nepsilon = 1e-3\n")
    out = tmp_path / "o"
    rc = main(["energy", "--config", str(cfg), "--alpha", "0.2",
               "--out", str(out)])
    assert rc == 0
    row = (out / "energy.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "k1"
    assert float(row[1]) == 0.2


def test_sweep_fit_and_refusal(tmp_path, capsys):
    rc = main(["sweep", "--case", "k2", "--alpha", "0.1",
               "--epsilons", "1e-6,3e-6,1e-5,1e-4", "--out", str(tmp_path)])
    assert rc == 0
    fit = capsys.readouterr().out
    assert "slope=" in fit
    slope = float(fit.split("slope=")[1].split()[0])
    assert 0.7 < slope < 0.9
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(lines) == 5
    ratios = [float(line.split(",")[11]) for line in lines[1:]]
    assert max(ratios) / min(ratios) < 100.0

    # all-austenite grid: fit refused
    rc = main(["sweep", "--case", "k2", "--alpha", "0.1",
               "--epsilons", "0.1,0.3,1.0,10.0", "--out", str(tmp_path)])
    assert rc == 2

    # too few epsilons is a config error
    rc = main(["sweep", "--case", "k2", "--epsilons", "1e-6,1e-5",
               "--out", str(tmp_path)])
    assert rc == 2


def test_sweep_runs_at_its_defaults(tmp_path, capsys):
    # The default epsilon list lies in the branching regime at the default
    # alpha, L and H, so the fit is made: slopes near 2/3 (k1) and 4/5 (k2).
    for case, lo, hi in (("k1", 0.6, 0.75), ("k2", 0.75, 0.85)):
        out = tmp_path / case
        assert main(["sweep", "--case", case, "--out", str(out)]) == 0
        fit = capsys.readouterr().out
        assert "points=4" in fit
        assert lo < float(fit.split("slope=")[1].split()[0]) < hi
        assert len((out / "sweep.csv").read_text().splitlines()) == 5


def test_quadrature_warnings_reach_stderr(tmp_path, capsys):
    # No refinement at all: the order-2 rule misses the tolerance at once.
    cfg = tmp_path / "shallow.cfg"
    cfg.write_text("quad_base_order = 2\nquad_max_depth = 0\n")
    runs = (["energy"], ["construct"],
            ["sweep", "--epsilons", "1e-6,3e-6,1e-5,1e-4"])
    for i, argv in enumerate(runs):
        rc = main(argv + ["--config", str(cfg), "--out", str(tmp_path / str(i))])
        assert rc == 0, argv
        err = capsys.readouterr().err.splitlines()
        assert "warning: cell quadrature hit the refinement limit" in err, argv
    # Default settings stay silent.
    assert main(["energy", "--out", str(tmp_path / "default")]) == 0
    assert "warning:" not in capsys.readouterr().err


def test_phase_outputs(tmp_path):
    rc = main(["phase", "--case", "k2", "--alpha", "0.1", "--out", str(tmp_path)])
    assert rc == 0
    csv = (tmp_path / "phase.csv").read_text().splitlines()
    assert csv[0] == "case,alpha,log10_L_over_eps,log10_H_over_eps,regime,bound_value"
    labels = {line.split(",")[4] for line in csv[1:]}
    assert labels == {"A", "BR", "HL"}
    svg = (tmp_path / "phase.svg").read_text()
    assert svg.startswith("<svg") and "log10(L/eps)" in svg


def test_construct_outputs(tmp_path):
    rc = main(["construct", "--case", "k2", "--alpha", "0.1",
               "--epsilon", "1e-4", "--out", str(tmp_path)])
    assert rc == 0
    manifest = (tmp_path / "manifest.txt").read_text()
    assert manifest.startswith("domain")
    svg = (tmp_path / "construction.svg").read_text()
    assert svg.count("<polygon") >= 10
    # identity regime renders one polygon per (single) cell
    rc = main(["construct", "--case", "k2", "--alpha", "0.1",
               "--epsilon", "0.5", "--out", str(tmp_path / "id")])
    assert rc == 0
    svg = (tmp_path / "id" / "construction.svg").read_text()
    assert svg.count("<polygon") == 1


def test_construct_refuses_unrenderable_cell_counts(tmp_path, capsys):
    # theta -> 1/2: k2 at eps = 1e-4 has 5.5e12 cells, k1 at eps = 1e-5 5e30,
    # which is past int64.
    for case, eps in (("k2", "1e-4"), ("k1", "1e-5")):
        out = tmp_path / case
        argv = ["--case", case, "--epsilon", eps, "--theta", "0.49", "--out", str(out)]
        assert main(["construct"] + argv) == 2
        assert "cells" in capsys.readouterr().err
        assert not out.exists()
        # The quadrature is O(tau): energy still answers.
        assert main(["energy"] + argv) == 0
    # The largest default-theta construction of the acceptance grid renders.
    big = horizontal_branched(WellSpec("k1", 0.2), 1e-7, Rect(0.0, 0.0, 0.5 ** 0.5, 2.0 ** 0.5))
    assert 2_000_000 < big.cell_count() <= cli.MAX_CONSTRUCT_CELLS


def test_construct_period_doubling_structure(tmp_path):
    rc = main(["construct", "--case", "k2", "--alpha", "0.1",
               "--epsilon", "1e-4", "--out", str(tmp_path)])
    assert rc == 0
    manifest = (tmp_path / "manifest.txt").read_text()
    counts = {}
    for line in manifest.splitlines():
        if line.startswith("cell part=0") and "family=k2cell" in line:
            x0 = float(line.split("x0=")[1].split()[0])
            counts[x0] = max(counts.get(x0, 0),
                             int(line.split("count=")[1].split()[0]))
    xs = sorted(counts)
    # stripes sit left to right with cell counts halving away from the
    # boundary (period doubling toward x = 0)
    per_stripe = [counts[x] for x in xs]
    assert len(per_stripe) >= 3
    for left, right in zip(per_stripe[:-1], per_stripe[1:]):
        assert left == 2 * right


def test_minimize_exit_codes(tmp_path):
    # branching regime with a 2-iteration budget: the best (construction)
    # start is still descending, so the run reports non-convergence
    rc = main(["minimize", "--case", "k2", "--alpha", "0.1", "--epsilon", "1e-6",
               "--mesh", "8,8", "--max-iter", "2", "--out", str(tmp_path)])
    assert rc == 4
    report = (tmp_path / "minimize_report.txt").read_text()
    assert "status=max_iter" in report
    assert (tmp_path / "field.csv").read_text().splitlines()[0] == "x,y,u1,u2"

    # austenite regime: the identity start is a discrete critical point and
    # wins, so the command converges cleanly
    out2 = tmp_path / "a-regime"
    rc = main(["minimize", "--case", "k2", "--alpha", "0.1", "--epsilon", "0.5",
               "--mesh", "8,8", "--max-iter", "50", "--out", str(out2)])
    assert rc == 0
    report = (out2 / "minimize_report.txt").read_text()
    assert "best=identity" in report and "sandwich=ok" in report


def test_minimize_seed_energy_is_the_trace_start(tmp_path, monkeypatch):
    # Each start's reported seed_energy is its trace's first entry, which
    # must be discrete_energy's total with the run's Huber width.
    from twowell.fem import discrete_energy

    starts = []

    def recording(fld, spec, eps, opts):
        starts.append((fld, spec, eps, opts.delta_huber))
        return minimize(fld, spec, eps, opts)

    minimize = cli.minimize
    monkeypatch.setattr(cli, "minimize", recording)
    cfg = tmp_path / "delta.cfg"
    cfg.write_text("huber_delta = 1e-4\n")
    runs = [["--case", "k1"], ["--case", "k2"], ["--case", "k2", "--config", str(cfg)]]
    for k, extra in enumerate(runs):
        starts.clear()
        out = tmp_path / str(k)
        main(["minimize", *extra, "--alpha", "0.1", "--epsilon", "1e-3", "--mesh", "12,10",
              "--max-iter", "5", "--out", str(out)])
        lines = (out / "minimize_report.txt").read_text().splitlines()
        reported = [line.split()[1] for line in lines if line.startswith("start=")]
        assert len(reported) == len(starts) == (3 if extra[1] == "k1" else 2)
        for line, (fld, spec, eps, delta) in zip(reported, starts):
            assert line == f"seed_energy={cli._f(discrete_energy(fld, spec, eps, delta)[2])}"
        assert starts[0][3] == (1e-4 if "--config" in extra else None)


def test_validate_subprocess_and_negative_control():
    r = run_cli("validate", "--seed", "7")
    assert r.returncode == 0
    assert "FAIL" not in r.stdout
    r = run_cli("validate", "--corrupt-wells")
    assert r.returncode == 3
    assert "FAIL" in r.stdout


def test_validate_seed_independence():
    for seed in ("1", "99"):
        assert main(["validate", "--seed", seed]) == 0
