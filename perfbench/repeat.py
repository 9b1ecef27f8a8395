#!/usr/bin/env python3
"""Run one workload of the repo benchmark k times and summarise each metric.

    python3 perfbench/repeat.py --workload task_grain --runs 10 [--first-seed 1]
                                [--seconds 10] [--trace 0] [--sets 2]

Each run gets its own seed (first-seed, first-seed+1, ...). For every metric
the summary gives the median, the first and third quartile (Python's
statistics.quantiles(n=4)) and the spread (Q3 - Q1) / median, next to the
metric's bound from BENCHMARK.json and a third of it, the target the bounds
were set against. With --sets 2 it runs two such sets back to back and also
prints how far the second median moved from the first, the check a later
change is held to. It also checks that failed/attempted is the same share
in every run. Used to set the bounds and to re-check them.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """Share by which the second median is worse than the first (<= 0: not worse)."""
    if first == 0:
        return 0.0
    return (second - first) / first if better == "lower" else (first - second) / first


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed",
           str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("run failed: %s (exit %d)" % (" ".join(cmd), out.returncode))
    return json.loads(lines[-1])


def run_set(args, first_seed):
    results = []
    for k in range(args.runs):
        r = one_run(args.workload, first_seed + k, args.seconds, args.trace)
        results.append(r)
        print("  seed %d: attempted=%d failed=%d" % (first_seed + k, r["attempted"], r["failed"]),
              file=sys.stderr)
    return results


def summarise(results, spec):
    shares = {r["failed"] / r["attempted"] for r in results}
    print("failed share per run: %s" % sorted(shares))
    print("%-32s %14s %14s %14s %8s %7s %7s" % ("metric", "median", "q1", "q3", "spread",
                                                 "bound", "bound/3"))
    medians = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(vals, n=4)
        medians[name] = statistics.median(vals)
        b = spec.get(name, {}).get("bound")
        print("%-32s %14.6g %14.6g %14.6g %8.4f %7s %7s" % (
            name, medians[name], q1, q3, spread(vals), "-" if b is None else "%.3f" % b,
            "-" if b is None else "%.3f" % (b / 3)))
    return medians, shares


def selftest():
    """Hand-computed cases for the spread and drift arithmetic."""
    failures = 0
    cases = [
        (abs(spread(list(range(1, 11))) - 1.0) < 1e-12, "spread of 1..10 is 5.5/5.5"),
        (abs(spread([10, 10, 10, 10]) - 0.0) < 1e-12, "equal values have no spread"),
        (spread([0, 0, 0, 1]) == float("inf"), "a zero median gives an infinite spread"),
        (abs(worse_by(100, 110, "lower") - 0.10) < 1e-12, "10% slower is 0.10 worse"),
        (abs(worse_by(100, 90, "higher") - 0.10) < 1e-12, "10% less throughput is 0.10 worse"),
        (worse_by(100, 90, "lower") < 0, "a faster time is not worse"),
        (worse_by(0, 5, "lower") == 0, "a zero first median is not compared"),
    ]
    for ok, what in cases:
        if not ok:
            failures += 1
            print("FAILED: " + what, file=sys.stderr)
    print("repeat selftest: %s" % ("all cases passed" if not failures else
                                   "%d case(s) failed" % failures))
    return 1 if failures else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    sets = []
    for s in range(args.sets):
        print("== %s set %d: %d runs of %d s, trace %d" % (args.workload, s + 1, args.runs,
                                                        args.seconds, args.trace))
        sets.append(summarise(run_set(args, args.first_seed + s * args.runs), spec))
    if args.sets == 2:
        (m1, s1), (m2, s2) = sets
        print("failed share equal in both sets: %s" % (s1 == s2))
        print("%-32s %10s %7s" % ("metric", "worse_by", "bound"))
        for name in m1:
            b = spec.get(name, {})
            print("%-32s %10.4f %7s" % (name, worse_by(m1[name], m2[name], b.get("better", "lower")),
                                         b.get("bound", "-")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
