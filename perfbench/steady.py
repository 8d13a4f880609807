#!/usr/bin/env python3
"""Steadiness check: runs each workload several times, one seed per run, and
prints each metric's median, quartiles, min/max and quartile spread.

    python3 perfbench/steady.py [--runs 10] [--seconds 20] [--first-seed 1]
                                [workload ...]

Run from the repository root. The spread column is (Q3 - Q1) / median with
the quartiles of Python's statistics.quantiles(values, n=4); a metric's
bound in BENCHMARK.json should be at least three times its spread. The
share of failed operations must be identical in every run.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["policy_grid", "fleet_stream", "fuzz_batch"]


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", default=WORKLOADS)
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2")

    print("| workload | metric | unit | median | Q1 | Q3 | min | max | spread |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            results.append(run_once(workload, args.first_seed + i,
                                    args.seconds))
            print(f"  {workload} run {i + 1}/{args.runs} done",
                  file=sys.stderr, flush=True)
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"| {workload} | {name} | {first['unit']} | {med:.6g} | "
                  f"{q1:.6g} | {q3:.6g} | {min(values):.6g} | "
                  f"{max(values):.6g} | {spread:.2%} |")
        print(f"| {workload} | correct={correct} | failed share "
              f"{'identical' if len(shares) == 1 else 'DIFFERS'}: "
              f"{sorted(shares)} | | | | | | |", flush=True)


if __name__ == "__main__":
    main()
