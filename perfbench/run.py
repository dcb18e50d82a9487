"""twowell benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload ratio_grid|minimize|construct_check|all
        --seed N --seconds S --trace 0|1 [--quick]

Each workload runs in a fresh process with one BLAS/OpenMP thread.  With
``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics (``items_per_s``, ``setup_s``, ``peak_rss_mb``); with ``--trace 1``
it holds the per-layer metrics of a separately traced process.  Times are
scaled to a machine of fixed speed (see ``workloads.MachineSpeed``);
``setup_s`` is the median over five processes: four that only set up, and
the measured one.  ``--workload all`` runs every workload untraced and traced and prints
one table.  The run record (source hash, backend, thread setting, round
times, problems found) is printed before the result and kept under
``.perfbench-out/records``.  Exit code 1 when a workload process fails, 2
when the source tree is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("ratio_grid", "minimize", "construct_check")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # every run ends well within three minutes
THREAD_VARS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


class RunError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], deadline: float) -> dict:
    """Run workloads.py to completion and return its last-line JSON."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunError("time budget exhausted before the workload started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), *argv], cwd=ROOT,
            env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"workload process exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError(f"workload process exited with {proc.returncode}")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as exc:
        raise RunError(f"workload process printed no result: {lines[-1][:200]!r}") from exc


def git_head() -> str | None:
    """Commit of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "twowell").glob("*")):
        if path.suffix in (".py", ".pyx", ".c"):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def measure(workload: str, seed: int, seconds: float, trace: int,
            quick: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)] + (["--quick"] if quick else [])
    setups, setups_wall = [], []
    if not trace:
        for _ in range(SETUP_SAMPLES - 1):
            res = run_child(argv + ["--setup-only"], deadline)
            setups.append(res["setup_s"])
            setups_wall.append(res["setup_wall_s"])
    res = run_child(argv, deadline)
    setups.append(res["setup_s"])
    setups_wall.append(res["setup_wall_s"])
    if trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["layers"].items()}
    else:
        metrics = {
            "items_per_s": {"value": res["items_per_s"], "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "quick": quick, "git_head": git_head(), "src_sha256": source_digest(),
        "backend": res["backend"], "numpy": res["numpy"],
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)), "threads": THREAD_VARS,
        "rounds": len(res["round_s"]), "round_s": res["round_s"],
        "round_cpu_s": res["round_cpu_s"],
        "unit_scaled_s": res["unit_scaled_s"],
        "items_per_round": res["items_per_round"], "items_per_s": res["items_per_s"],
        "items_per_wall_s": res["items_per_wall_s"],
        "setup_samples_s": setups, "setup_wall_samples_s": setups_wall, "attempted": res["attempted"],
        "failed": res["failed"], "problems": res["problems"],
        "metrics": metrics, "extra": res.get("extra", {}),
    }
    records = ROOT / ".perfbench-out" / "records"
    records.mkdir(parents=True, exist_ok=True)
    (records / f"{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    return record


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="reduced item lists, for testing the benchmark itself")
    args = ap.parse_args()
    if not (SRC / "twowell" / "__init__.py").is_file():
        print(f"run.py: no twowell sources under {SRC}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traces = (0, 1) if args.workload == "all" else (args.trace,)
    records = []
    try:
        for name in names:
            for trace in traces:
                rec = measure(name, args.seed, args.seconds, trace, args.quick)
                records.append(rec)
                print("record: " + json.dumps(rec))
                for problem in rec["problems"]:
                    print(f"{name}: {problem}", file=sys.stderr)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    correct = all(not r["problems"] for r in records)
    if len(records) == 1:
        rec = records[0]
        print(result_line(correct, rec["attempted"], rec["failed"], rec["metrics"]))
        return 0
    metrics = {}
    for rec in records:
        for key, m in rec["metrics"].items():
            metrics[f"{rec['workload']}.{key}"] = m
        if rec["trace"]:
            untraced = next(r for r in records
                            if r["workload"] == rec["workload"] and not r["trace"])
            metrics[f"{rec['workload']}.tracing_overhead_items_per_s"] = {
                "value": rec["items_per_s"] - untraced["items_per_s"], "unit": "1/s"}
    for key, m in metrics.items():
        print(f"{key:55s} {m['value']:>16.6g} {m['unit']}")
    print(result_line(correct, sum(r["attempted"] for r in records if not r["trace"]),
                      sum(r["failed"] for r in records if not r["trace"]), metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
