#!/usr/bin/env python3
"""Steadiness of the end-to-end metrics, from which BENCHMARK.json's bounds
are derived.

    python3 perfbench/steady.py [--runs N] [--seconds S] [--trace 0|1]
        [--against TABLE.json] [workload ...]

Runs ``perfbench/run.py`` N times per workload, with seeds 1 to N, and
prints for every metric its median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the quartile distance as a
share of the median, with the usable-CPU count and the Python version.
With ``--against``, the last line of an earlier run saved to a file, it
also prints how far each median moved from that set's, as a share of the
earlier median. Run it from the root of a checkout; the last line is the
table as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cohort", "adhoc", "deny")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        capture_output=True, text=True, check=False,
    )
    if completed.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {completed.returncode}:\n"
            + completed.stderr[-2000:]
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def spread(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        # Some per-layer counters are 0 on some workloads (no IPC on a
        # thread shard); their spread is reported as 0.
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--against", type=Path)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    earlier = (
        json.loads(args.against.read_text().strip().splitlines()[-1])["workloads"]
        if args.against else {}
    )

    cpus = len(os.sched_getaffinity(0))
    print(f"usable CPUs: {cpus}; Python {platform.python_version()}; "
          f"{args.runs} runs of {args.seconds} s per workload")
    table: dict = {"cpus": cpus, "python": platform.python_version(), "workloads": {}}
    for workload in args.workloads:
        results = [
            run_once(workload, seed, args.seconds, args.trace)
            for seed in range(1, args.runs + 1)
        ]
        failed = [r["failed"] / r["attempted"] for r in results]
        correct = all(r["correct"] for r in results)
        print(f"\n{workload}: correct={correct} "
              f"failed share={sorted(set(failed))}")
        before = earlier.get(workload, {}).get("metrics", {})
        print(f"  {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}"
              + (f" {'moved':>8}" if before else ""))
        rows = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            row = rows[name] = spread(values)
            row["unit"] = results[0]["metrics"][name]["unit"]
            moved = ""
            if name in before and before[name]["median"]:
                row["moved"] = row["median"] / before[name]["median"] - 1
                moved = f" {row['moved']:+8.3f}"
            print(f"  {name:36} {row['median']:12.4f} {row['q1']:12.4f} "
                  f"{row['q3']:12.4f} {row['spread']:8.3f}{moved}  {row['unit']}")
        table["workloads"][workload] = {
            "correct": correct, "failed_share": failed, "metrics": rows,
        }
    print(json.dumps(table))
    return 0


if __name__ == "__main__":
    sys.exit(main())
