"""Command-line front end.

Subcommands: ``construct | energy | sweep | phase | minimize | validate``.
Options come from ``key=value`` config files ('#' starts a comment) with
command-line flags taking precedence; unknown keys are rejected.  All CSV
output uses a comma separator, a mandatory header row, LF line endings and
floats printed with 17 significant digits, so identical config and seed
reproduce byte-identical files.

Exit codes: 0 success, 2 configuration error (also a construction above
``MAX_CONSTRUCT_CELLS`` cells for ``construct``), 3 validation failure,
4 non-convergence of the minimizer.  Configuration errors (a bad flag value
as a bad file value), and a theta too close to 1/2 for the branching
schedule, are reported as ``config error: ...`` on stderr; quadrature
warnings of ``construct``, ``energy`` and ``sweep``, a candidate whose total
is not finite (it is not compared), and a k2 theta at or below 2^(-4/3), as
``warning: ...`` (exit code unaffected).  Any other exception is an
internal failure: it propagates out of :func:`main` with its traceback, so
``python -m twowell`` exits 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .checks import run_checks
from .energy import QuadratureSpec
from .fem import DiscreteField, Mesh, MinimizeOptions, minimize, seed_from_construction
from .microstructure import (K2_THETA_MIN, ScheduleRangeError, best_construction,
                             branched_constructions)
from .piecewise import Rect, write_manifest
from .render import construction_svg, phase_svg
from .scaling import (RATIO_PIN_C, _check_params, classify_regime, min_energy_bound,
                      phase_diagram)
from .wells import CASE_K1, CASE_K2, WellSpec

__all__ = ["main", "RunConfig", "ConfigError"]


class ConfigError(ValueError):
    pass


def _parse_mesh(text: str) -> tuple[int, int]:
    parts = text.replace("x", ",").split(",")
    if len(parts) != 2:
        raise ConfigError(f"mesh must be NX,NY, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_epsilons(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(",") if t.strip())


def _parsed(default, parse):
    """A field whose text is read by ``parse``, not by its default's type."""
    return field(default=default, metadata={"parse": parse})


@dataclass(frozen=True)
class RunConfig:
    case: str = CASE_K2
    alpha: float = 0.1
    epsilon: float = 1e-4
    L: float = 1.0
    H: float = 1.0
    mesh: tuple[int, int] = _parsed((96, 96), _parse_mesh)
    theta: float | None = _parsed(None, float)
    gamma: str = "quintic"
    seed: int = 0
    out: str = "out"
    quad_base_order: int = QuadratureSpec.base_order
    quad_rel_tol: float = QuadratureSpec.rel_tol
    quad_max_depth: int = QuadratureSpec.max_refinement_depth
    quad_line_points: int = QuadratureSpec.line_points
    epsilons: tuple[float, ...] = _parsed((1e-7, 1e-6, 1e-5, 1e-4), _parse_epsilons)
    phase_log_min: float = 0.5
    phase_log_max: float = 6.0
    phase_n: int = 121
    max_iter: int = 2000
    huber_delta: float | None = _parsed(None, float)

    def spec(self) -> WellSpec:
        return WellSpec(self.case, self.alpha)

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(self.quad_base_order, self.quad_max_depth,
                              self.quad_rel_tol, self.quad_line_points)

    def domain(self) -> Rect:
        return Rect(0.0, 0.0, self.L, self.H)


# The text parser of every config key: the type of its default, unless the
# field names one.
_PARSERS = {f.name: f.metadata.get("parse", type(f.default)) for f in fields(RunConfig)}


def parse_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = _parse(key, val, f"{path}:{lineno}: bad value for {key}")
    return values


def _parse(key: str, text: str, where: str):
    try:
        return _PARSERS[key](text)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def build_config(args: argparse.Namespace) -> RunConfig:
    """The ``--config`` file's values, overridden by the flags given."""
    values = parse_config_file(args.config) if args.config else {}
    for key, text in vars(args).items():
        if key in _PARSERS and text is not None:
            values[key] = _parse(key, text, f"bad value for --{key}")
    cfg = RunConfig(**values)
    # The checks the library makes itself: case and alpha, eps, L and H,
    # and the quadrature settings.
    try:
        cfg.spec()
        for eps in (cfg.epsilon, *cfg.epsilons):
            _check_params(cfg.alpha, eps, cfg.L, cfg.H)
        cfg.quad()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # L H bounds the identity's total, whose d2 is below 1 in both cases.
    if cfg.L * cfg.H == math.inf:
        raise ConfigError(f"the area L * H of L={cfg.L!r}, H={cfg.H!r} overflows")
    if cfg.gamma not in ("quintic", "linear"):
        raise ConfigError("gamma must be quintic or linear")
    if cfg.gamma == "linear" and cfg.case != CASE_K1:
        raise ConfigError("the linear ramp is only admissible for case k1")
    if cfg.huber_delta is not None and not 0.0 < cfg.huber_delta < math.inf:
        raise ConfigError("huber_delta must be positive and finite")
    if cfg.max_iter < 1:
        raise ConfigError("max_iter must be at least 1")
    if cfg.theta is not None and not (0.25 < cfg.theta < 0.5):
        raise ConfigError("theta must lie in (1/4, 1/2)")
    if cfg.phase_n < 2:
        raise ConfigError("phase_n must be at least 2")
    if not -math.inf < cfg.phase_log_min < cfg.phase_log_max < math.inf:
        raise ConfigError("phase_log_min and phase_log_max must be finite, "
                          "with phase_log_min < phase_log_max")
    if min(cfg.mesh) < 2:
        raise ConfigError("mesh needs at least 2 cells per direction")
    if cfg.seed < 0:
        raise ConfigError("seed must be nonnegative")
    return cfg


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows: list) -> None:
    """Every row is written through one template taken from the first row:
    ``%s`` where it holds a string, ``%.17g`` (which prints as :func:`_f`)
    elsewhere, so all rows must share the first row's column types."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        if rows:
            template = ",".join("%s" if isinstance(x, str) else "%.17g"
                                for x in rows[0]) + "\n"
            fh.writelines(template % tuple(row) for row in rows)


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _notes(cfg: RunConfig) -> None:
    for note in cfg.spec().theory_notes():
        print(f"note: {note}", file=sys.stderr)
    if cfg.case == CASE_K2 and cfg.theta is not None and cfg.theta <= K2_THETA_MIN:
        print(f"warning: theta={cfg.theta!r} <= 2^(-4/3): the k2 cells' elastic level "
              "sums diverge, so the energy does not scale as eps^(4/5)", file=sys.stderr)


def _warn(breakdown) -> None:
    for warning in breakdown.warnings:
        print(f"warning: {warning}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_SWEEP_HEADER = ["case", "alpha", "epsilon", "L", "H", "construction", "elastic",
                 "tv_bulk", "tv_jump", "total", "bound", "ratio"]


def _energy_row(cfg: RunConfig, eps: float):
    spec = cfg.spec()
    d, b, label = best_construction(spec, eps, cfg.L, cfg.H, quad=cfg.quad(),
                                    theta=cfg.theta, gamma_kind=cfg.gamma)
    _warn(b)
    bound = min_energy_bound(cfg.case, cfg.alpha, eps, cfg.L, cfg.H)
    row = [cfg.case, cfg.alpha, eps, cfg.L, cfg.H, label, b.elastic, b.tv_bulk,
           b.tv_jump, b.total, bound.value, b.total / bound.value]
    return d, b, row


# Cells ``construct`` renders at most.  Counts explode as theta -> 1/2 (k2 at
# theta = 0.49, eps = 1e-4: 5.5e12); the largest default-theta construction
# on the 150-point acceptance grid has 2.38e6 (k1, eps 1e-7, L x H = 0.71 x 1.41).
MAX_CONSTRUCT_CELLS = 10 ** 7


def cmd_construct(cfg: RunConfig) -> int:
    spec = cfg.spec()
    _notes(cfg)
    d, b, label = best_construction(spec, cfg.epsilon, cfg.L, cfg.H, quad=cfg.quad(),
                                    theta=cfg.theta, gamma_kind=cfg.gamma)
    if d.cell_count() > MAX_CONSTRUCT_CELLS:
        raise ConfigError(f"{d.cell_count()} cells: construct renders at most "
                          f"{MAX_CONSTRUCT_CELLS} (lower theta or raise epsilon)")
    out = _out_dir(cfg)
    _warn(b)
    write_manifest(d, out / "manifest.txt")
    (out / "construction.svg").write_text(construction_svg(d, spec))
    print(f"construction={label} cells={d.cell_count()} total={_f(b.total)} "
          f"elastic={_f(b.elastic)} tv_bulk={_f(b.tv_bulk)} tv_jump={_f(b.tv_jump)} "
          f"error_estimate={b.error_estimate:.3g}")
    return 0


def cmd_energy(cfg: RunConfig) -> int:
    _notes(cfg)
    _, b, row = _energy_row(cfg, cfg.epsilon)
    out = _out_dir(cfg)
    _write_csv(out / "energy.csv", _SWEEP_HEADER, [row])
    print(f"construction={row[5]} total={_f(b.total)} bound={_f(row[10])} "
          f"ratio={_f(row[11])} regime="
          f"{classify_regime(cfg.case, cfg.alpha, cfg.epsilon, cfg.L, cfg.H)} "
          f"error_estimate={b.error_estimate:.3g}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if len(cfg.epsilons) < 4:
        raise ConfigError("sweep needs at least 4 epsilon values (epsilons=...)")
    if max(cfg.epsilons) / min(cfg.epsilons) < 99.0:
        raise ConfigError("sweep epsilons must span at least two decades")
    _notes(cfg)
    rows = []
    br_points = []
    for eps in cfg.epsilons:
        _, b, row = _energy_row(cfg, eps)
        rows.append(row)
        if classify_regime(cfg.case, cfg.alpha, eps, cfg.L, cfg.H) == "BR":
            br_points.append((eps, b.total))
    _write_csv(_out_dir(cfg) / "sweep.csv", _SWEEP_HEADER, rows)
    if len(br_points) < 4:
        print(f"fit refused: only {len(br_points)} sweep points classify as "
              f"branching (need 4)", file=sys.stderr)
        return 2
    loge = np.log([p[0] for p in br_points])
    logt = np.log([p[1] for p in br_points])
    slope, intercept = np.polyfit(loge, logt, 1)
    resid = float(np.max(np.abs(logt - (slope * loge + intercept))))
    print(f"fit: slope={slope:.4f} residual={resid:.4f} points={len(br_points)}")
    return 0


def cmd_phase(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    pd = phase_diagram(cfg.case, cfg.alpha, (cfg.phase_log_min, cfg.phase_log_max), cfg.phase_n)
    # Row-major over the (H, L) grid, one template per grid row as in
    # phase_svg: the case, alpha and each column's log L/eps are fixed per
    # column, leaving the row's log H/eps, the regimes and the bounds.
    n_l = len(pd.log10_over_eps)
    row = "".join(f"{cfg.case},{_f(cfg.alpha)},{_f(x)},%s,%s,%.17g\n"
                  for x in pd.log10_over_eps)
    args = [None] * (3 * n_l)
    with open(out / "phase.csv", "w", newline="") as fh:
        fh.write("case,alpha,log10_L_over_eps,log10_H_over_eps,regime,bound_value\n")
        for lh, regimes, bounds in zip(pd.log10_over_eps, pd.regimes, pd.bound_values):
            args[0::3] = [_f(lh)] * n_l
            args[1::3] = regimes.tolist()
            args[2::3] = bounds.tolist()
            fh.write(row % tuple(args))
    (out / "phase.svg").write_text(phase_svg(pd))
    print(f"phase grid {cfg.phase_n}x{cfg.phase_n}: regimes "
          f"{','.join(sorted(pd.labels()))}")
    return 0


def cmd_minimize(cfg: RunConfig) -> int:
    spec = cfg.spec()
    _notes(cfg)
    mesh = Mesh(cfg.mesh[0], cfg.mesh[1], cfg.domain())
    opts = MinimizeOptions(max_iter=cfg.max_iter, delta_huber=cfg.huber_delta)

    starts = [("identity", DiscreteField.identity(mesh))]
    for name, d in branched_constructions(spec, cfg.epsilon, cfg.domain(), cfg.theta,
                                          cfg.gamma).items():
        fld, notes = seed_from_construction(d, mesh)
        for note in notes:
            print(f"warning: {name} seed {note}", file=sys.stderr)
        starts.append((name, fld))
    out = _out_dir(cfg)

    report = []
    results = []
    for name, fld in starts:
        res = minimize(fld, spec, cfg.epsilon, opts)
        # The trace starts at the seed's discrete_energy total, same delta.
        seed_energy = float(res.energy_trace[0])
        results.append((name, seed_energy, res))
        report.append(
            f"start={name} seed_energy={_f(seed_energy)} "
            f"final={_f(res.final_energy.total)} iters={res.iterations} "
            f"status={res.status} grad_norm={_f(res.gradient_norm)}")
    best_name, _, best = min(results, key=lambda r: r[2].final_energy.total)
    bound = min_energy_bound(cfg.case, cfg.alpha, cfg.epsilon, cfg.L, cfg.H)
    lower = bound.value / RATIO_PIN_C
    sandwich_ok = (best.final_energy.total <= min(e for n, e, _ in results
                                                  if n != "identity") + 1e-12
                   and best.final_energy.total >= lower)
    report.append(f"best={best_name} energy={_f(best.final_energy.total)} "
                  f"bound={_f(bound.value)} bound_over_C={_f(lower)} "
                  f"sandwich={'ok' if sandwich_ok else 'FAILED'}")
    (out / "minimize_report.txt").write_text("\n".join(report) + "\n")
    rows = np.hstack([mesh.nodes, best.field.values]).tolist()
    _write_csv(out / "field.csv", ["x", "y", "u1", "u2"], rows)
    for line in report:
        print(line)
    if best.status == "max_iter":
        print("best start exhausted the iteration budget while still "
              "descending", file=sys.stderr)
        return 4
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    results = run_checks(seed=cfg.seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    return 0 if all(r.passed for r in results) else 3


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


_COMMANDS = {"construct": cmd_construct, "energy": cmd_energy, "sweep": cmd_sweep,
             "phase": cmd_phase, "minimize": cmd_minimize, "validate": cmd_validate}

# The config keys every subcommand takes as flags, '-' for '_' (``sweep`` also
# ``--epsilons``): build_config parses their text as it parses a file value.
_FLAGS = ("out", "case", "alpha", "epsilon", "L", "H", "mesh", "seed", "theta", "gamma",
          "max_iter")
_HELP = {"config": "key=value config file", "out": "output directory",
         "mesh": "NX,NY grid cells", "epsilons": "comma-separated epsilon list"}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="twowell",
        description="Branched microstructures and scaling laws for two-well "
                    "elastic energies")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        for key in ("config", *_FLAGS, *(("epsilons",) if name == "sweep" else ())):
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP.get(key))

    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](build_config(args))
    except (ConfigError, ScheduleRangeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
