#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

Runs the benchmark once per seed on each workload and reports, per metric,
the median and the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median. A metric is
steady when that spread stays below a third of its bound, and too noisy
(exit code 1) when it exceeds the bound.

Usage (from the root of a checkout):

    python3 edgebench/spread.py                       # 10 seeds, all workloads
    python3 edgebench/spread.py --seeds 5 --workloads sg-dist
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med if med else float("inf")


def cpu_times():
    """Aggregate /proc/stat CPU counters (user ... steal), or None."""
    try:
        with open("/proc/stat") as f:
            return [int(v) for v in f.readline().split()[1:9]]
    except OSError:
        return None


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "edgebench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace)]
    before = cpu_times()
    start = time.monotonic()
    out = subprocess.run(cmd, capture_output=True, text=True, check=True)
    wall = time.monotonic() - start
    after = cpu_times()
    steal = None
    if before and after:
        delta = [b - a for a, b in zip(before, after)]
        steal = delta[7] / max(1, sum(delta))
    result = json.loads(out.stdout.strip().splitlines()[-1])
    return result, wall, steal


def main():
    root = Path(__file__).resolve().parent.parent
    bench = json.loads((root / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads.split(",")
    values = {w: {name: [] for name in bounds} for w in workloads}
    walls = {w: [] for w in workloads}
    steady = True
    # Seed-major, rotating the workload order, so drifting machine load is
    # spread over every workload instead of landing on one.
    for i, seed in enumerate(range(args.first_seed,
                                   args.first_seed + args.seeds)):
        for workload in workloads[i % len(workloads):] + \
                workloads[:i % len(workloads)]:
            result, wall, steal = run(workload, seed, args.seconds, 0)
            walls[workload].append(wall)
            if not result["correct"] or result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} of "
                      f"{result['attempted']} failed")
                steady = False
            row = []
            for name in bounds:
                if name in result["metrics"]:
                    v = result["metrics"][name]["value"]
                    values[workload][name].append(v)
                    row.append(f"{name}={v:.4g}")
            steal_text = "?" if steal is None else f"{100 * steal:.1f}%"
            print(f"{workload} seed {seed} ({wall:.1f} s, steal "
                  f"{steal_text}): {' '.join(row)}", flush=True)

    for workload in workloads:
        print(f"\n{workload}: {args.seeds} seeds, {args.seconds:g} s each, "
              f"wall {min(walls[workload]):.1f}-{max(walls[workload]):.1f} s "
              f"per run")
        for name, bound in bounds.items():
            vals = values[workload][name]
            if len(vals) < max(2, args.seeds):
                print(f"  {name:22s} missing in {args.seeds - len(vals)} runs")
                steady = False
                continue
            med, rel = spread(vals)
            if rel < bound / 3:
                verdict = "steady"
            elif rel <= bound:
                verdict = "within bound, above a third of it"
            else:
                verdict = "TOO NOISY"
                steady = False
            print(f"  {name:22s} median {med:12.6g}  spread {rel:6.3f}  "
                  f"bound {bound:.2f}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
