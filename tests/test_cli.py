import os
import subprocess
import sys
from itertools import repeat

import numpy as np
import pytest

from twowell import checks, cli
from twowell.cli import ConfigError, main, parse_config_file
from twowell.microstructure import horizontal_branched
from twowell.piecewise import Rect
from twowell.scaling import phase_diagram
from twowell.wells import WellSpec, well_matrices


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
    ("phase", "phase_log_min = nan"),
    ("phase", "phase_log_max = nan"),
    ("phase", "phase_log_max = inf"),
    ("phase", "phase_log_min = -inf"),
    ("phase", "phase_log_min = 7\nphase_log_max = 1"),
    ("phase", "phase_log_min = 2\nphase_log_max = 2"),
    # A theta this close to 1/2 takes the schedule's stripe heights out of
    # the float range.
    ("construct --case k1 --epsilon 1e-2", "theta = 0.4999"),
    ("energy --case k1 --epsilon 1e-2", "theta = 0.4999"),
    ("sweep --case k1", "theta = 0.4999"),
    ("minimize --case k1 --epsilon 1e-2", "theta = 0.4999"),
    # An area L H that overflows, and aspect ratios whose schedule (k1's on
    # the rotated candidate's swapped rectangle) leaves the float range at
    # the default theta.
    ("energy --L 1e200 --H 1e200", ""),
    ("energy --case k1 --L 1e-200", ""),
    ("energy --case k2 --H 1e-200", ""),
])
def test_config_rejects_nonfinite_and_degenerate_values(tmp_path, capsys, argv, line):
    # Each was accepted once: a NaN or infinite energy reported with exit 0,
    # a ValueError traceback (exit 1), a quadrature that never returns, or
    # an empty iteration budget reported as non-convergence (exit 4), or a
    # phase map of NaN axes or reversed axes (exit 0).
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    assert main(argv.split() + ["--config", str(cfg), "--out", str(tmp_path / "unused")]) == 2
    assert not (tmp_path / "unused").exists()
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    if "1e-200" in argv:
        # The schedule names the rectangle it left the float range on.
        assert "L=" in err and "H=" in err and "leaves the float range" in err


def _theta_warnings(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("warning: theta")]


@pytest.mark.parametrize("case, theta, warned", [
    ("k2", "0.3333", True),
    ("k2", repr(2.0 ** (-4.0 / 3.0)), True),
    ("k2", None, False),
    ("k2", "0.40", False),
    ("k1", "0.3", False),
])
def test_theta_window_warning(tmp_path, capsys, case, theta, warned):
    # At or below 2^(-4/3) the k2 cells' elastic level sums, (16 theta^3)^(-i),
    # diverge: the construction no longer scales as eps^(4/5).  Warned, not refused.
    argv = ["energy", "--case", case, "--epsilon", "1e-2", "--out", str(tmp_path)]
    assert main(argv + ([] if theta is None else ["--theta", theta])) == 0
    assert len(_theta_warnings(capsys.readouterr().err)) == int(warned)
    assert (tmp_path / "energy.csv").exists()


@pytest.mark.parametrize("argv, code", [
    ("construct --epsilon 1e-2", 0),
    ("sweep", 0),
    ("minimize --epsilon 1e-2 --mesh 8,8 --max-iter 1", 0),
])
def test_theta_warning_on_construct_sweep_and_minimize(tmp_path, capsys, argv, code):
    assert main(argv.split() + ["--case", "k2", "--theta", "0.3333",
                                "--out", str(tmp_path)]) == code
    out, err = capsys.readouterr()
    assert len(_theta_warnings(err)) == 1 and "theta" not in out
    assert any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", ["energy --alpha abc", "energy --case k3",
                                  "construct --gamma cubic", "validate --seed x",
                                  "minimize --max-iter 1.5"])
def test_bad_flag_values_are_config_errors(tmp_path, capsys, argv):
    # Flags carry no argparse type or choices: their text is parsed and
    # checked as a config file's value is, before any output is made.
    assert main(argv.split() + ["--out", str(tmp_path / "unused")]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not (tmp_path / "unused").exists()


def test_energy_at_tiny_epsilon_reports_the_candidate_it_leaves_out(tmp_path):
    # At eps = 1e-300 the branched total is not finite: it is named on
    # stderr and not compared, and its NaN panels are not refined to the
    # depth limit (this run took minutes when they were).
    r = subprocess.run([sys.executable, "-m", "twowell", "energy", "--case", "k2",
                        "--epsilon", "1e-300", "--out", str(tmp_path)],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 0
    assert r.stdout.startswith("construction=identity ")
    assert any(line.startswith("warning: ") and "branched-horizontal" in line
               for line in r.stderr.splitlines())
    assert "RuntimeWarning" not in r.stderr


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


def _error_estimate(stdout: str) -> float:
    """The ``error_estimate=`` field, the last of the one summary line."""
    (line,) = stdout.splitlines()
    key, value = line.split()[-1].split("=")
    assert key == "error_estimate" and value == format(float(value), ".3g")
    return float(value)


def test_energy_csv_schema_and_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(["energy", "--case", "k2", "--alpha", "0.1",
                   "--epsilon", "1e-5", "--out", str(out)])
        assert rc == 0
        assert 0.0 < _error_estimate(capsys.readouterr().out) < 1e-12
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
    # No refinement at all: the order-2 rules miss the tolerance at once.
    cfg = tmp_path / "shallow.cfg"
    cfg.write_text("quad_base_order = 2\nquad_line_points = 2\nquad_max_depth = 0\n")
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


def _oracle_phase_csv(path, cfg):
    """The phase rows as six-tuples through the one-template-per-file CSV
    writer, one ``%`` per grid point."""
    pd = phase_diagram(cfg.case, cfg.alpha, (cfg.phase_log_min, cfg.phase_log_max), cfg.phase_n)
    n = len(pd.log10_over_eps)
    log_l = [cli._f(x) for x in pd.log10_over_eps] * n
    log_h = [s for x in pd.log10_over_eps for s in [cli._f(x)] * n]
    rows = list(zip(repeat(cfg.case), repeat(cli._f(cfg.alpha)), log_l, log_h,
                    pd.regimes.ravel().tolist(), pd.bound_values.ravel().tolist()))
    cli._write_csv(path, ["case", "alpha", "log10_L_over_eps", "log10_H_over_eps",
                          "regime", "bound_value"], rows)


@pytest.mark.parametrize("n", [2, 3, 121, 200])
@pytest.mark.parametrize("case, alpha", [("k1", 0.1), ("k2", 0.1), ("k1", 0.3)])
def test_phase_csv_matches_per_point_writer(tmp_path, case, alpha, n):
    cfg = tmp_path / "phase.cfg"
    cfg.write_text(f"case = {case}\nalpha = {alpha!r}\nphase_n = {n}\n"
                   f"phase_log_min = -0.75\nphase_log_max = 7.3\n")
    assert main(["phase", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    _oracle_phase_csv(tmp_path / "oracle.csv", cli.RunConfig(**parse_config_file(str(cfg))))
    assert (tmp_path / "out" / "phase.csv").read_bytes() == \
        (tmp_path / "oracle.csv").read_bytes()


def test_construct_outputs(tmp_path, capsys):
    rc = main(["construct", "--case", "k2", "--alpha", "0.1",
               "--epsilon", "1e-4", "--out", str(tmp_path)])
    assert rc == 0
    assert 0.0 < _error_estimate(capsys.readouterr().out) < 1e-12
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


def test_energy_on_thin_domains(tmp_path, capsys):
    # The default N rounded to 0 on both: a ValueError traceback, exit 1.
    for case, side in (("k2", "--H"), ("k1", "--L")):
        out = tmp_path / case
        assert main(["energy", "--case", case, side, "1e-11", "--out", str(out)]) == 0
        assert "construction=identity" in capsys.readouterr().out


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
    # Negative control: the closed form sees well B of the orbit-distance
    # check off by 1e-3 in one entry, the angle-scan oracle the true well.
    script = ("import runpy, sys\n"
              "import numpy as np\n"
              "import twowell.checks as checks\n"
              "from twowell.wells import WellSpec, well_matrices\n"
              "B = well_matrices(WellSpec('k1', 0.3))[1]\n"
              "closed = checks.dist_to_rotated_well\n"
              "def corrupted(F, G):\n"
              "    if np.array_equal(G, B):\n"
              "        G = G + np.array([[1e-3, 0.0], [0.0, 0.0]])\n"
              "    return closed(F, G)\n"
              "checks.dist_to_rotated_well = corrupted\n"
              "sys.argv = ['twowell', 'validate']\n"
              "runpy.run_module('twowell', run_name='__main__')\n")
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 3, r.stderr
    fails = [line for line in r.stdout.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and "orbit-distance closed form vs angle scan" in fails[0]
    r = run_cli("validate", "--corrupt-wells")
    assert r.returncode == 2 and "unrecognized arguments: --corrupt-wells" in r.stderr


def _shrink_off_axis(d, F, arg):
    # The k2 well A of both rotation checks: 0.1% short where F11 > 0, which
    # a rotation of F changes but which keeps every distance a lower bound.
    if np.array_equal(arg, well_matrices(WellSpec("k2", 0.25))[0]):
        return d._replace(distance=d.distance * np.where(F[..., 0, 0] > 0.0, 1.0 - 1e-3, 1.0))
    return d


def _overstate(d, F, arg):
    # The same well, every distance 1e-3 long: rotation invariant.
    if np.array_equal(arg, well_matrices(WellSpec("k2", 0.25))[0]):
        return d._replace(distance=d.distance + 1e-3)
    return d


def _overstate_unswapped(d, F, spec):
    # 0.1 long where F12 > F21, which the swap conjugation reverses.
    return d._replace(distance=d.distance + np.where(F[..., 0, 1] > F[..., 1, 0], 0.1, 0.0))


@pytest.mark.parametrize("target,corrupt,check", [
    ("dist_to_rotated_well", _shrink_off_axis, "orbit distance rotation invariance"),
    ("dist_to_rotated_well", _overstate, "orbit distance majorized by samples"),
    ("dist_to_wells", _overstate_unswapped, "swap-conjugation distance inequality"),
], ids=["rotation-invariance", "majorized", "swap-conjugation"])
def test_validate_negative_controls_of_batched_checks(monkeypatch, capsys, target, corrupt,
                                                       check):
    """Each batched check fails, alone, when the closed form it calls is
    corrupted in a way that check exists to see."""
    closed = getattr(checks, target)
    monkeypatch.setattr(checks, target, lambda F, arg: corrupt(closed(F, arg), F, arg))
    assert main(["validate"]) == 3
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == 1 and check in fails[0]


def test_validate_seed_independence():
    for seed in ("1", "99"):
        assert main(["validate", "--seed", seed]) == 0


def test_minimize_output_independent_of_blas_threads(tmp_path):
    """The L-BFGS dot products and norms do not call BLAS, so ``twowell
    minimize`` on the default 96x96 mesh writes the same bytes on one and on
    two BLAS threads (BLAS ddot splits sums of this length across
    threads)."""
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        r = subprocess.run([sys.executable, "-m", "twowell", "minimize", "--max-iter", "40",
                            "--out", str(out)], env=env, capture_output=True, text=True)
        assert r.returncode == 4, r.stderr  # max_iter
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    assert names and names == sorted(p.name for p in outs[1].iterdir())
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
