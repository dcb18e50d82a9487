"""Command-line front end.

Subcommands: ``construct | energy | sweep | phase | minimize | validate``.
Options come from ``key=value`` config files ('#' starts a comment) with
command-line flags taking precedence; unknown keys are rejected.  All CSV
output uses a comma separator, a mandatory header row, LF line endings and
floats printed with 17 significant digits, so identical config and seed
reproduce byte-identical files.

Exit codes: 0 success, 2 configuration error (also a construction above
``MAX_CONSTRUCT_CELLS`` cells for ``construct``), 3 validation failure,
4 non-convergence of the minimizer.  Configuration errors are reported as
``config error: ...`` on stderr; quadrature warnings of ``construct``,
``energy`` and ``sweep`` as ``warning: ...`` (exit code unaffected).  Any
other exception is an internal failure: it propagates out of :func:`main`
with its traceback, so ``python -m twowell`` exits 1.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .checks import run_checks
from .energy import QuadratureSpec
from .fem import DiscreteField, Mesh, MinimizeOptions, minimize, seed_from_construction
from .microstructure import best_construction, branched_constructions
from .piecewise import Rect, write_manifest
from .render import construction_svg, phase_svg
from .scaling import RATIO_PIN_C, classify_regime, min_energy_bound, phase_diagram
from .wells import CASE_K1, CASE_K2, WellSpec

__all__ = ["main", "RunConfig", "ConfigError"]


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    case: str = CASE_K2
    alpha: float = 0.1
    epsilon: float = 1e-4
    L: float = 1.0
    H: float = 1.0
    mesh: tuple[int, int] = (96, 96)
    theta: float | None = None
    gamma: str = "quintic"
    seed: int = 0
    out: str = "out"
    quad_base_order: int = 8
    quad_rel_tol: float = 1e-8
    quad_max_depth: int = 12
    quad_line_points: int = 16
    epsilons: tuple[float, ...] = (1e-7, 1e-6, 1e-5, 1e-4)
    phase_log_min: float = 0.5
    phase_log_max: float = 6.0
    phase_n: int = 121
    max_iter: int = 2000
    huber_delta: float | None = None

    def spec(self) -> WellSpec:
        return WellSpec(self.case, self.alpha)

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(self.quad_base_order, self.quad_max_depth,
                              self.quad_rel_tol, self.quad_line_points)

    def domain(self) -> Rect:
        return Rect(0.0, 0.0, self.L, self.H)


def _parse_mesh(text: str) -> tuple[int, int]:
    parts = text.replace("x", ",").split(",")
    if len(parts) != 2:
        raise ConfigError(f"mesh must be NX,NY, got {text!r}")
    return int(parts[0]), int(parts[1])


def _parse_epsilons(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(",") if t.strip())


_PARSERS = {
    "case": str,
    "alpha": float,
    "epsilon": float,
    "L": float,
    "H": float,
    "mesh": _parse_mesh,
    "theta": float,
    "gamma": str,
    "seed": int,
    "out": str,
    "quad_base_order": int,
    "quad_rel_tol": float,
    "quad_max_depth": int,
    "quad_line_points": int,
    "epsilons": _parse_epsilons,
    "phase_log_min": float,
    "phase_log_max": float,
    "phase_n": int,
    "max_iter": int,
    "huber_delta": float,
}


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
        try:
            values[key] = _PARSERS[key](val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for key in _PARSERS:
        flag = getattr(args, key, None)
        if isinstance(flag, str) and key in ("mesh", "epsilons"):
            try:
                flag = _PARSERS[key](flag)
            except ValueError as exc:
                raise ConfigError(f"bad value for --{key}: {exc}") from exc
        if flag is not None:
            values[key] = flag
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.case not in (CASE_K1, CASE_K2):
        raise ConfigError(f"case must be k1 or k2, got {cfg.case!r}")
    if not (0.0 < cfg.alpha < 1.0):
        raise ConfigError("alpha must lie in (0, 1)")
    # Written so that NaN fails: it compares false with anything.
    if not all(0.0 < v < math.inf for v in (cfg.epsilon, cfg.L, cfg.H, *cfg.epsilons)):
        raise ConfigError("epsilon, L, H and epsilons must be positive and finite")
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
    try:
        cfg.quad()
    except ValueError as exc:
        raise ConfigError(f"quadrature settings: {exc}") from exc
    if cfg.phase_n < 2:
        raise ConfigError("phase_n must be at least 2")
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


def _notes(spec: WellSpec) -> None:
    for note in spec.theory_notes():
        print(f"note: {note}", file=sys.stderr)


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
    _notes(spec)
    d, b, label = best_construction(spec, cfg.epsilon, cfg.L, cfg.H, quad=cfg.quad(),
                                    theta=cfg.theta, gamma_kind=cfg.gamma)
    if d.cell_count() > MAX_CONSTRUCT_CELLS:
        raise ConfigError(f"{d.cell_count()} cells: construct renders at most "
                          f"{MAX_CONSTRUCT_CELLS} (lower theta or raise epsilon)")
    out = _out_dir(cfg)
    _warn(b)
    write_manifest(d, str(out / "manifest.txt"))
    (out / "construction.svg").write_text(construction_svg(d, spec))
    print(f"construction={label} cells={d.cell_count()} total={_f(b.total)} "
          f"elastic={_f(b.elastic)} tv_bulk={_f(b.tv_bulk)} tv_jump={_f(b.tv_jump)}")
    return 0


def cmd_energy(cfg: RunConfig) -> int:
    _notes(cfg.spec())
    out = _out_dir(cfg)
    _, b, row = _energy_row(cfg, cfg.epsilon)
    _write_csv(out / "energy.csv", _SWEEP_HEADER, [row])
    print(f"construction={row[5]} total={_f(b.total)} bound={_f(row[10])} "
          f"ratio={_f(row[11])} regime="
          f"{classify_regime(cfg.case, cfg.alpha, cfg.epsilon, cfg.L, cfg.H)}")
    return 0


def cmd_sweep(cfg: RunConfig) -> int:
    if len(cfg.epsilons) < 4:
        raise ConfigError("sweep needs at least 4 epsilon values (epsilons=...)")
    if max(cfg.epsilons) / min(cfg.epsilons) < 99.0:
        raise ConfigError("sweep epsilons must span at least two decades")
    _notes(cfg.spec())
    out = _out_dir(cfg)
    rows = []
    br_points = []
    for eps in cfg.epsilons:
        _, b, row = _energy_row(cfg, eps)
        rows.append(row)
        if classify_regime(cfg.case, cfg.alpha, eps, cfg.L, cfg.H) == "BR":
            br_points.append((eps, b.total))
    _write_csv(out / "sweep.csv", _SWEEP_HEADER, rows)
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
    pd = phase_diagram(cfg.case, cfg.alpha,
                       (cfg.phase_log_min, cfg.phase_log_max),
                       (cfg.phase_log_min, cfg.phase_log_max), cfg.phase_n)
    # Row-major over the (H, L) grid; alpha and the axis values repeat, so
    # they are formatted once and written as strings.
    n_l, n_h = len(pd.log10_L_over_eps), len(pd.log10_H_over_eps)
    log_l = [_f(x) for x in pd.log10_L_over_eps] * n_h
    log_h = [s for x in pd.log10_H_over_eps for s in [_f(x)] * n_l]
    rows = list(zip(repeat(cfg.case), repeat(_f(cfg.alpha)), log_l, log_h,
                    pd.regimes.ravel().tolist(), pd.bound_values.ravel().tolist()))
    _write_csv(out / "phase.csv",
               ["case", "alpha", "log10_L_over_eps", "log10_H_over_eps",
                "regime", "bound_value"], rows)
    (out / "phase.svg").write_text(phase_svg(pd))
    print(f"phase grid {cfg.phase_n}x{cfg.phase_n}: regimes "
          f"{','.join(sorted(pd.labels()))}")
    return 0


def cmd_minimize(cfg: RunConfig) -> int:
    spec = cfg.spec()
    _notes(spec)
    out = _out_dir(cfg)
    mesh = Mesh(cfg.mesh[0], cfg.mesh[1], cfg.domain())
    opts = MinimizeOptions(max_iter=cfg.max_iter, delta_huber=cfg.huber_delta)

    starts = [("identity", DiscreteField.identity(mesh), None)]
    for name, d in branched_constructions(spec, cfg.epsilon, cfg.domain(), cfg.theta,
                                          cfg.gamma).items():
        fld, notes = seed_from_construction(d, mesh)
        for note in notes:
            print(f"warning: {name} seed {note}", file=sys.stderr)
        starts.append((name, fld, d))

    report = []
    results = []
    for name, fld, _ in starts:
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
    seed_energies = {name: e for name, e, _ in results}
    sandwich_ok = (best.final_energy.total <= min(e for n, e in seed_energies.items()
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


def cmd_validate(cfg: RunConfig, corrupt_wells: bool = False) -> int:
    results = run_checks(seed=cfg.seed, corrupt_wells=corrupt_wells)
    ok = True
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
        ok &= r.passed
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--case", choices=[CASE_K1, CASE_K2])
    p.add_argument("--alpha", type=float)
    p.add_argument("--epsilon", type=float)
    p.add_argument("--L", type=float)
    p.add_argument("--H", type=float)
    p.add_argument("--mesh", help="NX,NY grid cells")
    p.add_argument("--seed", type=int)
    p.add_argument("--theta", type=float)
    p.add_argument("--gamma", choices=["quintic", "linear"])
    p.add_argument("--max-iter", dest="max_iter", type=int)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="twowell",
        description="Branched microstructures and scaling laws for two-well "
                    "elastic energies")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("construct", "energy", "sweep", "phase", "minimize", "validate"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "sweep":
            p.add_argument("--epsilons", help="comma-separated epsilon list")
        if name == "validate":
            p.add_argument("--corrupt-wells", action="store_true",
                           help="negative-control hook: corrupt a well matrix")

    args = parser.parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "construct":
            return cmd_construct(cfg)
        if args.command == "energy":
            return cmd_energy(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "phase":
            return cmd_phase(cfg)
        if args.command == "minimize":
            return cmd_minimize(cfg)
        return cmd_validate(cfg, corrupt_wells=getattr(args, "corrupt_wells", False))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
