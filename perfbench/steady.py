#!/usr/bin/env python3
"""Steadiness check: runs every workload N times and reports each metric's spread.

    python3 perfbench/steady.py --runs 10 [--first-seed 1] [--trace 0|1]

Run from the repository root. Every workload of BENCHMARK.json runs N times
for its run_seconds through perfbench/run.py. Runs alternate between
workloads (seed k of every workload, then seed k+1, ...). For each workload
and metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the interquartile range as a share
of the median. For end-to-end metrics it also prints the bound from
BENCHMARK.json and flags a spread of a third of the bound or more. Exits 1 if
any run fails or reports correct: false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {w: [] for w in workloads}
    ok = True
    for k in range(args.runs):
        seed = args.first_seed + k
        for w in workloads:
            r = run_once(w, seed, bench["run_seconds"], args.trace)
            results[w].append({"seed": seed, **r})
            if not r["correct"] or r["failed"]:
                ok = False
            print(f"{w} seed {seed}: correct={r['correct']} attempted={r['attempted']} "
                  f"failed={r['failed']}", file=sys.stderr, flush=True)

    for w in workloads:
        print(f"\n{w} ({len(results[w])} runs)")
        print(f"  {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}"
              f" {'bound':>6}")
        for name in results[w][0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results[w]]
            median = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                         else (median, median, median))
            spread = (q3 - q1) / median if median else 0.0
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None:
                flag = f" {bound:6.2f}" + ("" if spread < bound / 3 else "  WIDE")
            print(f"  {name:32} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.2%}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
