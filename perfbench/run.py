"""Benchmark of chipctx: three closed-loop workloads, untraced or traced.

Run from the repository root:

    python3 perfbench/run.py --workload analytic_grid --seed 7 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke          # every workload, both modes, tiny sizes

With ``--trace 0`` the run reports the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics derived from the spans (see README.md).  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it stamps the machine, the
versions, the commit and the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# Passes are repeated for --seconds, but never fewer than this: the sampled
# workload's rerun check compares pass 2k+1 with pass 2k.
MIN_PASSES = 2
# Fresh-process set-up measurements per run, after one unrecorded probe that
# fills the bytecode and file caches.
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 120


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p: int) -> float:
    """The p-th percentile (inclusive method); the median of fewer than two values."""
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def git_commit() -> str | None:
    """Commit of the checkout read from ``.git``; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def stamp(seed: int) -> dict:
    import chipctx
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "chipctx": getattr(chipctx, "__version__", None),
        "commit": git_commit(),
        "seed": seed,
    }


def measure_setup(workload: str, seed: int, smoke: bool, workdir: Path) -> float:
    """Median set-up time over fresh processes (see setup_probe.py)."""
    times = []
    for i in range(SETUP_PROBES + 1):
        probe_dir = workdir / f"setup{i}"
        probe_dir.mkdir()
        cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
               "--seed", str(seed), "--workdir", str(probe_dir)] + (["--smoke"] if smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
        if i > 0:
            times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return median(times)


def run_untraced(workload, seconds: float) -> dict:
    """Repeat passes for ``seconds``; derive the end-to-end metrics.

    The speed of a shared machine comes in bursts: most passes run at one
    speed and a varying few run much faster.  The slow side of a run (the
    10th percentile of pass throughputs, the 90th of follow-up times) varies
    about half as much from run to run as the median does, so those are the
    reported statistics.
    """
    rates, index = [], 0
    t0 = perf_counter()
    while index < MIN_PASSES or perf_counter() - t0 < seconds:
        before = len(workload.ops)
        workload.run_pass(index)
        main = [op for op in workload.ops[before:] if op.step == "main" and op.error is None]
        busy = sum(op.seconds for op in main)
        if busy > 0:
            rates.append(sum(op.work for op in main) / busy)
        index += 1
    follow = [op.seconds for op in workload.ops if op.step == "follow_up" and op.error is None]
    return {
        "main_p10_per_s": percentile(rates, 10),
        "follow_up_p90_s": percentile(follow, 90),
        "passes": index,
    }


def run_traced(workload, tracer, seconds: float) -> dict:
    """Alternate an untraced and a traced pass; derive per-layer metrics."""
    from spans import summarize

    cycles: list[dict] = []
    t0 = perf_counter()
    while not cycles or perf_counter() - t0 < seconds:
        index = 2 * len(cycles)
        before = len(workload.ops)
        workload.run_pass(index)
        untraced = sum(op.seconds for op in workload.ops[before:])
        before = len(workload.ops)
        tracer.active = True
        try:
            workload.run_pass(index + 1)
        finally:
            tracer.active = False
        spans = tracer.take()
        traced = sum(op.seconds for op in workload.ops[before:])
        metrics = summarize(spans, traced)
        metrics["trace.overhead_s"] = traced - untraced
        probe = workload.scaling_probe()
        small, large = probe if probe is not None else (0.0, 0.0)
        metrics["sweep.us_per_point.small"] = small
        metrics["sweep.us_per_point.large"] = large
        metrics["sweep.grid_cost_ratio"] = large / small if small > 0 else 0.0
        cycles.append(metrics)
    out = {name: median([c[name] for c in cycles]) for name in cycles[0]}
    out["trace.absent_names"] = len(tracer.absent)
    return out


def run(args) -> int:
    from workloads import WORKLOADS

    spec = json.loads(BENCHMARK_JSON.read_text())
    build_dir = ROOT / ".bench_build"
    build_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=build_dir))
    failures: list[str] = []
    try:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        else:
            try:
                setup_s = measure_setup(args.workload, args.seed, args.smoke, workdir)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
                failures.append(f"set-up: {exc}")
                setup_s = 0.0
        workload = WORKLOADS[args.workload](args.seed, args.smoke, workdir / "run", tracer)
        workload.workdir.mkdir()
        try:
            workload.warm_up()
        except Exception as exc:  # a broken first call is a failed operation
            failures.append(f"warm-up: {type(exc).__name__}: {exc}")
        if args.trace:
            values = run_traced(workload, tracer, args.seconds)
            tracer.remove()
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            for name in tracer.absent:
                print(f"trace: absent {name}")
        else:
            values = run_untraced(workload, args.seconds)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            names = [m["name"] for m in spec["end_to_end"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures += [op.error for op in workload.ops if op.error is not None]
    # The warm-up and, in untraced runs, the set-up measurement are operations too.
    attempted = len(workload.ops) + 1 + (0 if args.trace else 1)
    failed = len(failures)
    for message in failures[:10]:
        print(f"failure: {message}", file=sys.stderr)
    if not args.trace:
        print(f"workload {args.workload}: {values['passes']} passes, seed {args.seed}")
        for name in names:
            print(f"  {name} = {values[name]:.6g} {units[name]}")
        print("  under workload names (main: 10th percentile of passes,"
              " follow-up: 90th percentile of calls):")
        for name, value, unit in workload.named_metrics(values["main_p10_per_s"],
                                                        values["follow_up_p90_s"]):
            print(f"  {name} = {value:.6g} {unit}")
        print(f"  error_rate = {failed / attempted:.6g} ({failed} of {attempted})")
    print(json.dumps({"stamp": stamp(args.seed)}))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


def smoke() -> int:
    """Run every workload in both modes at tiny size and check the result line."""
    from workloads import WORKLOADS

    spec = json.loads(BENCHMARK_JSON.read_text())
    expected = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for name in WORKLOADS:
        for trace in (0, 1):
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
            label = f"{name} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{label}: no result line (exit {proc.returncode}) {proc.stderr}")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: exit {proc.returncode}, result {result} {proc.stderr}")
            if set(result["metrics"]) != expected[trace]:
                problems.append(f"{label}: metrics {sorted(set(result['metrics']) ^ expected[trace])}"
                                " differ from BENCHMARK.json")
            print(f"{label}: ok={not problems} in {perf_counter() - t0:.1f}s")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("analytic_grid", "sampled_roundtrip",
                                               "classical_board"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; without --workload, self-test every workload")
    args = parser.parse_args(argv)
    if not (SRC / "chipctx" / "__init__.py").is_file():
        print(f"error: no chipctx sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    if args.workload is None:
        if args.smoke:
            return smoke()
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
