"""ropf benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload dispatch-ieee14 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports ropf from src/. --trace 0
measures the end-to-end metrics; --trace 1 is a separate run that wraps the
public functions of every ropf module and reports per-layer figures.
--workload all runs every workload in turn, each in its own process.
--smoke shrinks the swarm and the grid so every path runs in seconds.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Earlier lines are the same figures for
people, under the names the documentation uses. Everything else (the
environment, every sample, the span table and the spans themselves) goes
to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import os

# One caller on one core: BLAS threads would compete with the caller on the
# benchmark host's two cores and make the 224-bus flows swing by half.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import math
import platform
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7
IMPORT_REPEATS = 5
WORKLOAD_NAMES = ("dispatch-ieee14", "pricing-cli-ieee14", "powerflow-grid224")


def tail(samples: list[float]) -> tuple[float, str] | None:
    """p90, or with fewer than 100 samples the highest percentile that still
    has ten samples beyond it; None when that percentile would not lie above
    the median (21 samples or fewer)."""
    s = sorted(samples)
    n = len(s)
    k = min(math.ceil(0.9 * n) - 1, n - 11)
    if 2 * k <= n - 1:
        return None
    return s[k], f"p{100 * (k + 1) / n:.0f}"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run_ops(seconds: float, op, on_result, between=lambda elapsed: None) -> tuple[list[float], int]:
    """Closed loop: start operations until `seconds` have passed (at least
    one). `between` runs before each operation, outside its timing.
    Returns each operation's duration and how many failed."""
    durations: list[float] = []
    failed = 0
    start = perf_counter()
    while not durations or perf_counter() - start < seconds:
        between(perf_counter() - start)
        i = len(durations)
        t0 = perf_counter()
        try:
            result = op(i)
        except Exception:
            durations.append(perf_counter() - t0)
            failed += 1
            traceback.print_exc()
            continue
        durations.append(perf_counter() - t0)
        try:
            on_result(result)
        except Exception:
            failed += 1
            traceback.print_exc()
    return durations, failed


def child_wall(workloads, args: list[str], stdin: str | None = None) -> float:
    """Wall time of one fresh interpreter, which must succeed."""
    child = workloads.run_child(args, stdin)
    if child.returncode != 0:
        raise RuntimeError(f"{' '.join(args[:3])} exited {child.returncode}: {child.stderr[-500:]}")
    return child.wall_s


def child_median(workloads, args: list[str], repeats: int) -> float:
    """Median wall time of fresh interpreters, after one untimed run that
    leaves the bytecode cache warm."""
    child_wall(workloads, args)
    return statistics.median(child_wall(workloads, args) for _ in range(repeats))


def end_to_end(workloads, w, seconds: float) -> tuple[dict, dict]:
    """The gated operation figure is the median of the run. On a shared host
    the speed changes every few seconds, so a run holds many short
    operations and the median sits in the bulk of them; the fastest and the
    tail operation follow single moments of the host and are only printed.

    The set-up samples are spread over the run for the same reason: a burst
    of them would all see the host in one state."""
    setup_times: list[float] = []

    def sample_setup(elapsed: float) -> None:
        while len(setup_times) < SETUP_REPEATS and elapsed >= len(setup_times) * seconds / SETUP_REPEATS:
            setup_times.append(child_wall(workloads, w.setup_args, w.setup_stdin))

    child_wall(workloads, w.setup_args, w.setup_stdin)  # warms the bytecode cache
    durations, failed = run_ops(seconds, w.op, w.check, sample_setup)
    sample_setup(math.inf)
    median_s = statistics.median(durations)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_s_p50": (median_s, "s"),
        "peak_rss_mb": (w.peak_rss_mb(), "MB"),
    }
    alias, scale, unit = w.alias
    people = {alias if unit == "s" else f"{alias}_p50": (median_s * scale, unit)}
    people[f"{alias}_min"] = (min(durations) * scale, unit)
    if (high := tail(durations)) is not None:
        people[f"{alias}_{high[1]}"] = (high[0] * scale, unit)
    detail = {"durations_s": durations, "setup_s": setup_times, "failed": failed, "people": people}
    return metrics, detail


def traced(workloads, spans, w, seconds: float) -> tuple[dict, dict]:
    """Pairs of the same operation, untraced then traced, until `seconds`
    have passed; the difference between the two halves is the overhead."""
    tracer = spans.Tracer()
    untraced_s = traced_s = 0.0

    def pair(i: int):
        nonlocal untraced_s, traced_s
        t0 = perf_counter()
        result = w.traced_op(i)
        untraced_s += perf_counter() - t0
        w.check(result)
        patched = spans.install(tracer)
        try:
            t0 = perf_counter()
            with tracer.span(spans.OP):
                result = w.traced_op(i)
            traced_s += perf_counter() - t0
            with tracer.span(spans.CHECK):
                w.check(result)
        finally:
            spans.uninstall(patched)

    durations, failed = run_ops(seconds, pair, lambda _: None)
    rows, totals = spans.span_table(tracer)
    metrics = spans.layer_metrics(rows, totals)
    import_s = child_median(workloads, ["-c", "import ropf.cli"], IMPORT_REPEATS)
    bare_s = child_median(workloads, ["-c", "pass"], IMPORT_REPEATS)
    metrics["cli.import_s"] = (import_s - bare_s, "s")
    metrics["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    workloads.OUT.mkdir(exist_ok=True)
    tracer.save(workloads.OUT / f"spans-{w.name}.npz")
    detail = {"failed": failed, "pairs": len(durations), "totals": totals, "spans": rows}
    return metrics, detail


def print_span_table(rows: list[dict], totals: dict) -> None:
    print(f"trace: {totals['ops']} ops, {totals['wall_s']:.3f} s traced wall, "
          f"{totals['named_share']:.1%} in named spans")
    print(f"{'span':<36}{'calls/op':>11}{'total s':>10}{'self s':>10}{'median us':>14}{'share':>8}{'self':>8}")
    for r in rows:
        print(
            f"{r['name']:<36}{r['calls_per_op']:>11.1f}{r['total_s']:>10.3f}{r['self_s']:>10.3f}"
            f"{r['median_us']:>14.1f}{r['share']:>8.1%}{r['self_share']:>8.1%}"
        )


def run_one(args) -> int:
    if not (ROOT / "src" / "ropf" / "__init__.py").is_file():
        print(f"error: no ropf sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    env = environment()
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    w = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    print(f"workload {w.name} seed {args.seed} " + " ".join(f"{k}={v}" for k, v in w.facts().items()))
    if args.trace:
        metrics, detail = traced(workloads, spans, w, args.seconds)
        print_span_table(detail["spans"], detail["totals"])
        attempted = detail["pairs"]
    else:
        metrics, detail = end_to_end(workloads, w, args.seconds)
        attempted = len(detail["durations_s"])
        for name, (value, unit) in detail["people"].items():
            print(f"{name} {value:.6g} {unit}")
    failed = detail["failed"]
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"ops_attempted {attempted}\nops_failed {failed}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=w.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  smoke=args.smoke, environment=env, facts=w.facts(), detail=detail)
    workloads.OUT.mkdir(exist_ok=True)
    out = workloads.OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; sums the counts and prefixes the
    metric names with the workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd + (["--smoke"] if args.smoke else []), stdout=subprocess.PIPE,
                              text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
