#!/usr/bin/env python3
"""Steadiness check: runs every workload of BENCHMARK.json for its
run_seconds with consecutive seeds and prints, per end-to-end metric, the
median, the quartiles and the spread (q3 - q1) / median against a third of
the metric's bound.  The ungated op_ms_tail and ops_per_s of the run
details are shown the same way.  Runs are sequential, one process each.

    python3 benchmark/steady.py --runs 10 [--first-seed 1]

Exit status 1 if an op failed or a spread reached its metric's bound.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


UNGATED = ("op_ms_tail", "ops_per_s")


def run_once(workload, seed, seconds):
    """(run details, result) of one untraced run."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        values = {name: [] for name in (*bounds, *UNGATED)}
        failed = 0
        for seed in range(args.first_seed, args.first_seed + args.runs):
            details, result = run_once(workload, seed, seconds)
            failed += result["failed"]
            ok = ok and result["correct"] and result["failed"] == 0
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            for name in UNGATED:
                values[name].append(details[name])
        print(f"{workload}: {args.runs} runs, seeds {args.first_seed}.."
              f"{args.first_seed + args.runs - 1}, {seconds} s each, "
              f"{failed} failed ops")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>8} {'bound/3':>8}")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if name in UNGATED:
                print(f"  {name:<12} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                      f"{spread:>8.2%}  (not gated)")
                continue
            third = bounds[name] / 3
            flag = "" if spread < third else "  <-- wide"
            if spread >= bounds[name]:
                ok = False
            print(f"  {name:<12} {med:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                  f"{spread:>8.2%} {third:>8.2%}{flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
