"""Run-to-run spread of the end-to-end metrics over ten seeds.

For each workload of BENCHMARK.json, runs the benchmark once per seed at the
benchmark's own ``run_seconds`` and prints, per metric, the median, the
interquartile range as a share of the median (the spread that must stay
within the metric's bound) and the bound itself.

Run from the repository root:

    python3 perfbench/spread.py [--first-seed N] [--json OUT]

``--first-seed`` picks the seed set (N .. N+9), so that two disjoint sets can
be compared.  ``--json`` also writes the medians and spreads, with the first
run's stamp.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 180
SEEDS = 10


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    summary: dict = {"seeds": SEEDS, "seconds": seconds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        for seed in range(args.first_seed, args.first_seed + SEEDS):
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            walls.append(perf_counter() - t0)
            lines = proc.stdout.strip().splitlines()
            summary.setdefault("stamp", json.loads(lines[-2])["stamp"])
            result = json.loads(lines[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, {result}", file=sys.stderr)
                status = 1
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print(f"{workload}: {SEEDS} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        summary["workloads"][workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary["workloads"][workload][name] = {"median": med, "spread": spread}
            print(f"  {name:12s} median {med:.6g}  spread {spread:.4f}  bound {bounds[name]}"
                  f"  values {' '.join(f'{v:.4g}' for v in vals)}")
    if args.json is not None:
        summary["stamp"].pop("seed", None)
        args.json.write_text(json.dumps(summary, indent=2) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
