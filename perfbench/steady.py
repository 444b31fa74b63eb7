#!/usr/bin/env python3
"""Steadiness self-check of the repo benchmark.

    python3 perfbench/steady.py [--runs 10] [--workload NAME ...]

Runs each workload of BENCHMARK.json --runs times through perfbench/run.py
for run_seconds, with seeds 1..runs, and prints per end-to-end metric the
median, the quartiles, the quartile spread (Q3 - Q1) / median, as
statistics.quantiles(values, n=4) gives them, against the metric's bound,
and every run's value in run order.  A metric whose spread exceeds its
bound is flagged.  It then repeats seed 1 once and checks that the
deterministic fingerprint line is identical.  The per-layer table is
`run.py --trace 1`'s.

Exits 1 when a run fails, a result is not correct, a spread exceeds its
bound, or a fingerprint does not repeat.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds",
         str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d failed (exit %d)" %
                           (workload, seed, out.returncode))
    lines = out.stdout.splitlines()
    fingerprint = next((l for l in lines if l.startswith("fingerprint ")), "")
    return json.loads(lines[-1]), fingerprint


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bad = False
    for workload in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        first_fingerprint = None
        for seed in range(1, args.runs + 1):
            result, fingerprint = run(workload, seed, seconds)
            if seed == 1:
                first_fingerprint = fingerprint
            if not result["correct"] or result["failed"]:
                print("%s seed %d: incorrect result" % (workload, seed))
                bad = True
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        print("== %s: %d runs, seeds 1..%d, %g s each" %
              (workload, args.runs, args.runs, seconds))
        print("%-22s %14s %14s %14s %8s %6s" %
              ("metric", "median", "q1", "q3", "spread", "bound"))
        for metric in bench["end_to_end"]:
            series = values[metric["name"]]
            q1, q2, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            over = spread > metric["bound"]
            bad |= over
            print("%-22s %14.6g %14.6g %14.6g %8.4f %6.3f%s" %
                  (metric["name"], q2, q1, q3, spread, metric["bound"],
                   "  OVER BOUND" if over else ""))
            print("    " + " ".join("%.6g" % v for v in series))
        _, again = run(workload, 1, seconds)
        if again != first_fingerprint:
            print("fingerprint did not repeat:\n  %s\n  %s" %
                  (first_fingerprint, again))
            bad = True
        else:
            print("fingerprint repeats: %s" % again)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
