"""One benchmark workload in one process; ``run.py`` starts this script.

    python perfbench/workloads.py --workload NAME --seed N --seconds S
        --trace 0|1 [--quick] [--setup-only]

The process times its own set-up (importing NumPy and twowell, then the
workload's input preparation), runs one untimed warm-up item, then repeats
the workload's fixed list of units in whole rounds until ``--seconds`` of
timed rounds have passed (at least one round).  Every time is scaled to a
machine of fixed speed (:class:`MachineSpeed`).  The outputs of every round
are checked between rounds, outside the timed region.  The last stdout line
is one JSON object for ``run.py``.
"""

import time

T_START = time.perf_counter()  # set-up is timed from before NumPy loads

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from twowell import cli, energy, fem, kernels, microstructure, piecewise, scaling, wells  # noqa: E402
from twowell.piecewise import Rect  # noqa: E402
from twowell.wells import CASE_K1, CASE_K2, WellSpec  # noqa: E402

import verify  # noqa: E402
from tracer import NullTracer, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".perfbench-out"
UNIT = Rect(0.0, 0.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Workloads.  Each round is a fixed list of units, ``(key, items, fn)``: the
# unit counts ``items`` items and ``fn()`` returns ``(result, items done)``.
# ---------------------------------------------------------------------------

# The 150-point acceptance grid of criterion 05, in its order.
GRID = [(case, eps, asp, a) for case in (CASE_K2, CASE_K1)
        for eps, asp, a in itertools.product(
            (1e-7, 1e-6, 1e-5, 1e-4, 1e-3), (0.25, 0.5, 1.0, 2.0, 4.0),
            (0.05, 0.1, 0.2))]


class RatioGrid:
    """best_construction + min_energy_bound at 30 points of the acceptance
    grid: three per (case, eps) block, with the (aspect, alpha) offsets
    rotating from block to block so that each case meets all 15 pairs once;
    one item is one point.  Quadrature-bound: no mesh, no point location, no
    rendering."""

    def __init__(self, seed, quick, tr):
        self.tr = tr
        # Block b holds GRID[15 b : 15 b + 15]; offsets b, b + 5, b + 10 mod 15.
        sample = [GRID[15 * b + (b + 5 * j) % 15] for b in range(10) for j in range(3)]
        self.items = sample[::6] if quick else sample
        # Points re-evaluated with a tighter quadrature after the first round.
        # Python's generator, not NumPy's: importing numpy.random adds 5 MB to
        # the peak RSS, and nothing else in this workload needs it.
        self.tight = set(random.Random(seed).sample(range(len(self.items)),
                                                    1 if quick else 3))
        self.kept = {}

    def _point(self, i):
        case, eps, asp, a = self.items[i]
        L, H = math.sqrt(asp), 1.0 / math.sqrt(asp)
        d, b, label = microstructure.best_construction(WellSpec(case, a), eps, L, H)
        with self.tr.span("scaling.bound"):
            bound = scaling.min_energy_bound(case, a, eps, L, H)
        if i in self.tight:
            self.kept[i] = d
        return (b, label, bound.value), 1

    def warmup(self):
        self._point(len(self.items) - 1)

    def units(self):
        return [(i, 1, lambda i=i: self._point(i)) for i in range(len(self.items))]

    def check_round(self, results, first):
        problems = []
        for i, (b, label, bound) in results.items():
            case, eps, asp, a = self.items[i]
            problems += verify.check_ratio_point(
                case, a, math.sqrt(asp), 1.0 / math.sqrt(asp), label, b.total,
                bound, b.warnings, scaling.RATIO_PIN_C)
        if first:
            tight = energy.QuadratureSpec(base_order=12, rel_tol=1e-10)
            for i, d in self.kept.items():
                if i in results:
                    case, eps, _, a = self.items[i]
                    t = energy.total_energy(d, WellSpec(case, a), eps, tight)
                    problems += verify.check_tight(f"grid point {self.items[i]}",
                                                   results[i][0].total, t.total)
        return problems


class Minimize:
    """The CLI-default problem (k2, alpha 0.1, eps 1e-4, 96x96 mesh): L-BFGS
    from the identity and from the horizontal-construction seed for a fixed
    iteration budget; one item is one iteration."""

    CASE, ALPHA, EPS = CASE_K2, 0.1, 1e-4

    def __init__(self, seed, quick, tr):
        self.tr = tr
        self.seed = seed
        self.spec = WellSpec(self.CASE, self.ALPHA)
        self.budget = 5 if quick else 20
        with tr.span("fem.mesh"):
            self.mesh = fem.Mesh(96, 96, UNIT)
        construction = microstructure.horizontal_branched(self.spec, self.EPS, UNIT)
        with tr.span("fem.seed"):
            seed_field, _ = fem.seed_from_construction(construction, self.mesh)
        self.starts = {"identity": fem.DiscreteField.identity(self.mesh),
                       "horizontal": seed_field}

    def _run(self, start, budget):
        with self.tr.span("fem.minimize"):
            res = fem.minimize(start, self.spec, self.EPS,
                               fem.MinimizeOptions(max_iter=budget))
        self.tr.add("fem.iterations", res.iterations)
        self.tr.add("fem.steps", len(res.energy_trace) - 1)
        return res, res.iterations

    def warmup(self):
        self._run(self.starts["identity"], 1)

    def units(self):
        return [(name, self.budget, lambda s=start: self._run(s, self.budget))
                for name, start in self.starts.items()]

    def check_round(self, results, first):
        problems = []
        for name, res in results.items():
            problems += verify.check_trace(name, res.energy_trace)
        if len(results) < len(self.starts):
            return problems
        seed_energy = fem.discrete_energy(self.starts["horizontal"], self.spec, self.EPS)[2]
        lower = scaling.min_energy_bound(self.CASE, self.ALPHA, self.EPS, 1.0, 1.0).value \
            / scaling.RATIO_PIN_C
        best = min(res.final_energy.total for res in results.values())
        problems += verify.check_sandwich(best, seed_energy, lower)
        if not first:
            return problems
        mesh = self.mesh
        rng = np.random.default_rng(self.seed)
        for name, res in results.items():
            recomputed = verify.recompute_energy(mesh.nodes, mesh.tris, res.field.values,
                                                 self.spec, self.EPS)
            problems += verify.check_recomputed(name, res.final_energy.total, recomputed)
            # The final field sits on non-smooth points of the energy (triangles
            # at the exact A/B tie, edge jumps below the Huber width), where
            # central differences cannot agree with any one-sided gradient; a
            # 1e-3 seeded perturbation of the free nodes moves off them.
            vals = res.field.values.copy()
            vals[mesh.free_mask] += 1e-3 * rng.standard_normal((mesh.n_free, 2))
            grad = fem.discrete_gradient(fem.DiscreteField(mesh, vals), self.spec, self.EPS)
            nodes = rng.choice(np.flatnonzero(mesh.free_mask), 6, replace=False)
            err = verify.fd_gradient_error(
                lambda v: fem.discrete_energy(fem.DiscreteField(mesh, v), self.spec,
                                              self.EPS)[2], grad, vals, nodes)
            if not err < 1e-5:
                problems.append(f"{name}: discrete_gradient vs central differences "
                                f"{err:.2e} >= 1e-5")
        return problems


class _Capture:
    """Keeps the last result of the wrapped function (the construction the
    CLI rendered), without timing anything."""

    def __init__(self, fn):
        self.fn, self.last = fn, None

    def __call__(self, *args, **kwargs):
        self.last = self.fn(*args, **kwargs)
        return self.last


class ConstructCheck:
    """Inspection steps a user runs: ``twowell construct`` in-process at
    several eps for both cases, coverage check and point evaluation of each
    result, ``phase`` for both cases and ``validate``; one item is one step."""

    CONSTRUCTS = [(CASE_K1, 1e-3), (CASE_K2, 1e-4), (CASE_K1, 1e-4), (CASE_K2, 1e-5)]
    N_INTERIOR, N_BOUNDARY, FD_H = 2000, 400, 1e-6

    def __init__(self, seed, quick, tr):
        self.tr = tr
        self.seed = seed
        self.constructs = self.CONSTRUCTS[:2] if quick else self.CONSTRUCTS
        self.out = OUT_ROOT / f"construct_check-{os.getpid()}"
        self.out.mkdir(parents=True, exist_ok=True)
        (self.out / "phase_k1.cfg").write_text("case = k1\nphase_n = 200\n")
        rng = np.random.default_rng(seed)
        self.clouds = []
        for _ in self.constructs:
            interior = rng.uniform(0.01, 0.99, (self.N_INTERIOR, 2))
            t = rng.uniform(0.0, 1.0, self.N_BOUNDARY)
            corner = np.array([[0.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 0.0]])
            along = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
            side = rng.integers(0, 4, self.N_BOUNDARY)
            self.clouds.append((interior, corner[side] + t[:, None] * along[side]))
        self.built = {}
        self.capture = _Capture(cli.best_construction)
        cli.best_construction = self.capture

    def close(self):
        cli.best_construction = self.capture.fn
        shutil.rmtree(self.out, ignore_errors=True)

    def _cli(self, *argv):
        buf = io.StringIO()
        with self.tr.span("cli"), contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
        return (rc, buf.getvalue()), 1

    def _construct(self, i):
        case, eps = self.constructs[i]
        self.built.pop(i, None)
        (rc, text), _ = self._cli("construct", "--case", case, "--epsilon", repr(eps),
                                  "--out", str(self.out / f"construct{i}"))
        self.built[i] = self.capture.last
        return (rc, text), 1

    def _inspect(self, i):
        d = self.built[i][0]
        interior, boundary = self.clouds[i]
        with self.tr.span("piecewise.coverage"):
            rep = piecewise.coverage_check(d)
        pts = np.concatenate([verify.stencil(interior, self.FD_H), boundary])
        u, du = d.evaluate(pts)
        return (rep, u, du), 1

    def warmup(self):
        self._cli("construct", "--case", CASE_K1, "--epsilon", "0.001",
                  "--out", str(self.out / "warmup"))

    def units(self):
        n = range(len(self.constructs))
        k1_cfg = str(self.out / "phase_k1.cfg")
        return ([(("construct", i), 1, lambda i=i: self._construct(i)) for i in n]
                + [(("inspect", i), 1, lambda i=i: self._inspect(i)) for i in n]
                + [(("phase", CASE_K2), 1, lambda: self._cli(
                       "phase", "--case", CASE_K2, "--out", str(self.out / "phase_k2"))),
                   (("phase", CASE_K1), 1, lambda: self._cli(
                       "phase", "--config", k1_cfg, "--out", str(self.out / "phase_k1"))),
                   (("validate", None), 1, lambda: self._cli("validate"))])

    def check_round(self, results, first):
        problems = []
        for (kind, key), res in results.items():
            if kind == "construct":
                rc, text = res
                d, b, _ = self.built[key]
                name = f"construct {self.constructs[key]}"
                out = self.out / f"construct{key}"
                if rc != 0 or f"cells={d.cell_count()} " not in text \
                        or f"total={b.total:.17g} " not in text:
                    problems.append(f"{name}: exit {rc}, output {text.strip()!r}")
                if not (out / "manifest.txt").stat().st_size:
                    problems.append(f"{name}: empty manifest")
                problems += verify.check_svg(out / "construction.svg")
            elif kind == "inspect":
                rep, u, du = res
                name = f"construction {self.constructs[key]}"
                interior, boundary = self.clouds[key]
                nb = len(boundary)
                problems += verify.check_coverage(name, rep)
                problems += verify.check_boundary_identity(name, boundary, u[-nb:])
                problems += verify.check_gradient_fd(
                    name, self.built[key][0], interior, u[:-nb], du[:-nb], self.FD_H)
            elif kind == "phase":
                rc, _ = res
                if rc != 0:
                    problems.append(f"phase {key}: exit {rc}")
                else:
                    problems += verify.check_phase_csv(
                        self.out / f"phase_{key}" / "phase.csv", key, 0.1)
                    problems += verify.check_svg(self.out / f"phase_{key}" / "phase.svg")
            else:
                problems += verify.check_validate_output(*res)
        sizes = [d.cell_count() for d, _, _ in self.built.values()]
        if first and len(self.constructs) == len(self.CONSTRUCTS) \
                and not max(sizes, default=0) > 10_000:
            problems.append(f"no construction above 1e4 cells: {sizes}")
        return problems


WORKLOADS = {"ratio_grid": RatioGrid, "minimize": Minimize,
             "construct_check": ConstructCheck}


# ---------------------------------------------------------------------------
# Tracing: the wrapped program entry points and the per-layer metrics
# ---------------------------------------------------------------------------


def _count_points(name):
    def on_call(tr, args, result):
        tr.add(name, len(args[0]))
    return on_call


def install_tracing(tr: Tracer) -> None:
    """Wrap the module attributes that the program looks up at call time.

    ``profiles`` is not wrapped: ``piecewise`` and ``microstructure`` import
    its functions by name, so its cost shows inside the energy and
    evaluation spans.
    """
    def warnings(tr, args, b):
        tr.add("energy.warnings", len(b.warnings))

    def built(tr, args, d):
        tr.add("microstructure.groups", sum(len(p.groups) for p in d.parts))
        tr.add("microstructure.cells", d.cell_count())

    def evaluated(tr, args, result):
        tr.add("piecewise.evaluate_points", len(np.atleast_2d(args[1])))

    tr.wrap(kernels, "dist2_two_wells", "kernels.dist2", _count_points("kernels.dist2_points"))
    tr.wrap(kernels, "dist2_two_wells_grad", "kernels.grad",
            _count_points("kernels.grad_points"))
    tr.wrap(energy, "total_energy", "energy.total", warnings)
    tr.wrap(energy, "_elastic", "energy.elastic")
    tr.wrap(energy, "_tv_bulk", "energy.tv_bulk")
    tr.wrap(energy, "_tv_jump", "energy.tv_jump")
    tr.wrap(microstructure, "horizontal_branched", "microstructure.build", built)
    tr.wrap(microstructure, "vertical_branched_k1", "microstructure.build", built)
    tr.wrap(piecewise.PiecewiseDeformation, "evaluate", "piecewise.evaluate", evaluated)
    tr.wrap(fem, "discrete_energy", "fem.energy")
    tr.wrap(fem, "discrete_gradient", "fem.gradient")
    tr.wrap(cli, "write_manifest", "piecewise.manifest")
    tr.wrap(cli, "construction_svg", "render.construction_svg",
            lambda tr, args, svg: tr.add("render.svg_bytes", len(svg.encode())))
    tr.wrap(cli, "phase_svg", "render.phase_svg")
    tr.wrap(cli, "phase_diagram", "scaling.phase",
            lambda tr, args, pd: tr.add("scaling.phase_points", pd.regimes.size))
    tr.wrap(cli, "run_checks", "checks.validate")


def layer_metrics(s: dict) -> dict:
    """Per-layer metrics from a tracer snapshot, as (value, unit)."""
    def g(key):
        return float(s.get(key, 0.0))

    fg = g("fem.gradient_calls")
    return {
        "kernels.dist2_calls": (g("kernels.dist2_calls"), "count"),
        "kernels.dist2_points": (g("kernels.dist2_points"), "count"),
        "kernels.dist2_s": (g("kernels.dist2_s"), "s"),
        "kernels.grad_calls": (g("kernels.grad_calls"), "count"),
        "kernels.grad_points": (g("kernels.grad_points"), "count"),
        "kernels.grad_s": (g("kernels.grad_s"), "s"),
        "energy.elastic_s": (g("energy.elastic_s"), "s"),
        "energy.tv_bulk_s": (g("energy.tv_bulk_s"), "s"),
        "energy.tv_jump_s": (g("energy.tv_jump_s"), "s"),
        "energy.evaluations": (g("energy.total_calls"), "count"),
        "energy.warnings": (g("energy.warnings"), "count"),
        "microstructure.build_s": (g("microstructure.build_s"), "s"),
        "microstructure.builds": (g("microstructure.build_calls"), "count"),
        "microstructure.groups": (g("microstructure.groups"), "count"),
        "microstructure.cells": (g("microstructure.cells"), "count"),
        "scaling.bound_s": (g("scaling.bound_s"), "s"),
        "scaling.phase_s": (g("scaling.phase_s"), "s"),
        "scaling.phase_points": (g("scaling.phase_points"), "count"),
        "piecewise.evaluate_s": (g("piecewise.evaluate_s"), "s"),
        "piecewise.evaluate_points": (g("piecewise.evaluate_points"), "count"),
        "piecewise.coverage_s": (g("piecewise.coverage_s"), "s"),
        "piecewise.manifest_s": (g("piecewise.manifest_s"), "s"),
        "fem.mesh_s": (g("fem.mesh_s"), "s"),
        "fem.seed_s": (g("fem.seed_s"), "s"),
        "fem.energy_s": (g("fem.energy_s"), "s"),
        "fem.gradient_s": (g("fem.gradient_s"), "s"),
        "fem.lbfgs_self_s": (g("fem.minimize_self_s"), "s"),
        "fem.fg_evals": (fg, "count"),
        "fem.iterations": (g("fem.iterations"), "count"),
        # Each minimize evaluates f and g once before its first step.
        "fem.backtracks": (fg - g("fem.minimize_calls") - g("fem.steps"), "count"),
        "render.construction_svg_s": (g("render.construction_svg_s"), "s"),
        "render.svg_bytes": (g("render.svg_bytes"), "bytes"),
        "render.phase_svg_s": (g("render.phase_svg_s"), "s"),
        "checks.validate_s": (g("checks.validate_s"), "s"),
        "cli.self_s": (g("cli_self_s"), "s"),
    }


def _median_time(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def micro_metrics(seed: int) -> tuple[dict, dict]:
    """The baseline rows of ROADMAP.md, each the median of a few calls:
    (metrics, informational extras such as the other kernel backend)."""
    rng = np.random.default_rng(seed)
    n = 200_000
    F = rng.uniform(-2.0, 2.0, (n, 2, 2))
    spec = WellSpec(CASE_K2, 0.1)
    A, B = wells.well_matrices(spec)
    from twowell import _kernels_np
    backends = {"numpy": _kernels_np}
    try:
        from twowell import _kernels
        backends["cython"] = _kernels
    except ImportError:
        pass
    extra = {}
    for label, mod in backends.items():
        extra[f"kernels.{label}_dist2_ns_per_point"] = \
            _median_time(lambda: mod.dist2_two_wells(F, A, B), 5) / n * 1e9
        extra[f"kernels.{label}_grad_ns_per_point"] = \
            _median_time(lambda: mod.dist2_two_wells_grad(F, A, B), 5) / n * 1e9
    active = kernels.backend_name()

    mesh = fem.Mesh(96, 96, UNIT)
    vals = mesh.nodes.copy()
    vals[mesh.free_mask] += 0.02 * rng.standard_normal((mesh.n_free, 2))
    field = fem.DiscreteField(mesh, vals)

    def fg():
        fem.discrete_energy(field, spec, 1e-4)
        fem.discrete_gradient(field, spec, 1e-4)

    d4 = microstructure.horizontal_branched(spec, 1e-4, UNIT)
    d10 = microstructure.horizontal_branched(spec, 1e-10, UNIT)
    pairs = [WellSpec(c, a) for a in (0.1, 0.2, 0.4) for c in (CASE_K1, CASE_K2)]
    metrics = {
        "kernels.micro_dist2_ns_per_point": (extra[f"kernels.{active}_dist2_ns_per_point"], "ns"),
        "kernels.micro_grad_ns_per_point": (extra[f"kernels.{active}_grad_ns_per_point"], "ns"),
        "fem.micro_fg_ms": (_median_time(fg, 7) * 1e3, "ms"),
        "fem.micro_mesh384_s": (_median_time(lambda: fem.Mesh(384, 384, UNIT), 3), "s"),
        "energy.micro_k2_eps1e-4_s": (
            _median_time(lambda: energy.total_energy(d4, spec, 1e-4), 3), "s"),
        "energy.micro_k2_eps1e-10_s": (
            _median_time(lambda: energy.total_energy(d10, spec, 1e-10), 3), "s"),
        "wells.micro_rank_one_s": (
            _median_time(lambda: [wells.rank_one_connections(p) for p in pairs], 3), "s"),
    }
    return metrics, extra


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


class MachineSpeed:
    """Scales wall times to a machine of fixed speed.

    The cores of a shared host run this program up to 1.8x slower at some times
    than at others, for minutes at a time, with process CPU time equal to
    wall time.  A fixed reference kernel (interpreter loop plus small-array
    NumPy, the mix twowell runs) is timed between units, and each unit's
    wall time is multiplied by ``NOMINAL_S`` over the mean of the reference
    times just before and after it: the time the unit would take where the
    reference kernel takes 10 ms.
    """

    NOMINAL_S = 0.010

    def __init__(self):
        self.a = np.linspace(0.0, 1.0, 80000).reshape(20000, 2, 2)
        self.b = self.a[::-1].copy()
        self.kernel_s()

    def kernel_s(self) -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(2000):
            acc += (i * 7) % 13
        for _ in range(2):
            acc += np.einsum("nij,njk->nik", self.a, self.b).sum()
        return time.perf_counter() - t0

    def factor(self) -> float:
        """Scale factor from the median of nine reference times."""
        return self.NOMINAL_S / statistics.median(self.kernel_s() for _ in range(9))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tr = Tracer() if args.trace else NullTracer()
    if args.trace:
        install_tracing(tr)
    wl = WORKLOADS[args.workload](args.seed, args.quick, tr)
    setup_wall_s = time.perf_counter() - T_START
    speed = MachineSpeed()
    setup_s = setup_wall_s * speed.factor()
    if args.setup_only:
        getattr(wl, "close", lambda: None)()
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0

    try:
        tr.enabled = False
        setup_snapshot = tr.snapshot() if args.trace else {}
        wl.warmup()
        failed = 0
        problems: list[str] = []
        round_s: list[float] = []
        round_cpu_s: list[float] = []
        unit_scaled_s: list[list[float]] = []  # per round, per unit
        attempted = 0
        while not round_s or sum(round_s) < args.seconds:
            results, wall, scaled = {}, 0.0, []
            c0 = time.process_time()
            ref_before = speed.kernel_s()
            for key, items, fn in wl.units():
                tr.enabled = True
                t0 = time.perf_counter()
                try:
                    results[key], done = fn()
                except Exception:  # a failed item is counted; the run goes on
                    traceback.print_exc(file=sys.stderr)
                    failed += items
                    done = items
                dt = time.perf_counter() - t0
                tr.enabled = False
                ref_after = speed.kernel_s()
                wall += dt
                scaled.append(dt * speed.NOMINAL_S / (0.5 * (ref_before + ref_after)))
                ref_before = ref_after
                attempted += done
            round_cpu_s.append(time.process_time() - c0)
            round_s.append(wall)
            unit_scaled_s.append(scaled)
            if len(round_s) == 1:
                # Every round repeats the same work, so the high-water mark
                # after the first one is the workload's; read it before the
                # checks, which allocate on their own.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            problems += wl.check_round(results, first=len(round_s) == 1)
    finally:
        getattr(wl, "close", lambda: None)()

    items_per_round = attempted // len(round_s)
    result = {
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "items_per_s": attempted / sum(map(sum, unit_scaled_s)),
        "items_per_wall_s": attempted / sum(round_s),
        "peak_rss_mb": peak_rss_mb,
        "round_s": round_s,
        "round_cpu_s": round_cpu_s,
        "unit_scaled_s": unit_scaled_s,
        "items_per_round": items_per_round,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "backend": kernels.backend_name(),
        "numpy": np.__version__,
    }
    if args.trace:
        tr.restore()
        end = tr.snapshot()
        rounds = len(round_s)
        per_round = {k: setup_snapshot.get(k, 0.0)
                     + (v - setup_snapshot.get(k, 0.0)) / rounds for k, v in end.items()}
        layers = layer_metrics(per_round)
        micro, extra = micro_metrics(args.seed)
        layers.update(micro)
        result["layers"] = layers
        result["extra"] = extra
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
