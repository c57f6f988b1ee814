#!/usr/bin/env python3
"""Threshold guard for the perf-smoke CI job.

Compares a fresh google-benchmark JSON run against the committed
baseline (e.g. BENCH_preprocessing.json) and fails when throughput
regressed by more than the threshold factor.

Two checks run, and either fails the job:

1. Raw geomean of per-benchmark cpu_time ratios (new / baseline)
   > threshold. This is the absolute guard the acceptance criterion
   asks for. Caveat: the baseline was recorded on one machine and CI
   runners differ, so a uniformly slower runner shifts this metric
   one-for-one; if a runner generation change ever trips it with flat
   *normalized* ratios (check the log), refresh the committed baseline
   from the job's uploaded artifact or raise --threshold.
2. Worst *normalized* ratio (each benchmark's ratio divided by the
   suite's median ratio) > threshold. Dividing out the median cancels
   any uniform machine-speed delta, so this catches a localized
   hot-path regression even on a runner much faster or slower than the
   baseline machine — and distinguishes "the runner is slow" (raw
   geomean high, normalized flat) from "one code path regressed"
   (normalized spike) at a glance.

Benchmarks present only on one side never fail the job, but both
directions warn: baseline entries missing from the run (a renamed or
deleted benchmark silently un-guards itself) and run entries missing
from the baseline (a new benchmark is uncovered until the committed
baseline is refreshed).

Usage:
  check_bench_regression.py BASELINE.json CURRENT.json [--threshold FACTOR]
  check_bench_regression.py --self-test

The threshold FACTOR (default 2.0) applies to both checks. --self-test
runs the checker against synthetic fixtures (flat run passes, uniform
slowdown trips the geomean, a single spike trips the normalized check)
and exits nonzero on any surprise — CI runs it so the guard itself is
guarded.
"""

import argparse
import json
import math
import os
import sys
import tempfile


def load_times(path):
    with open(path) as f:
        data = json.load(f)
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        cpu = float(bench["cpu_time"])
        if math.isfinite(cpu) and cpu > 0:  # 0-iteration runs are garbage
            times[bench["name"]] = cpu
    return times


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def check(baseline_path, current_path, threshold):
    """The comparison proper; returns a process exit code."""
    baseline = load_times(baseline_path)
    current = load_times(current_path)

    common = sorted(set(baseline) & set(current))
    if not common:
        print("error: no common benchmarks between baseline and current run")
        return 1
    missing = sorted(set(baseline) - set(current))
    if missing:
        print(f"warning: {len(missing)} baseline benchmarks missing from run:")
        for name in missing:
            print(f"  {name}")
    new_only = sorted(set(current) - set(baseline))
    if new_only:
        print(f"warning: {len(new_only)} benchmarks have no baseline "
              f"(uncovered by this guard — refresh the committed baseline):")
        for name in new_only:
            print(f"  {name}")

    ratios = {name: current[name] / baseline[name] for name in common}
    med = median(ratios.values())
    geomean = math.exp(sum(math.log(r) for r in ratios.values()) / len(common))

    print(f"{'benchmark':<44} {'baseline':>12} {'current':>12} "
          f"{'ratio':>7} {'norm':>6}")
    worst_norm = (0.0, "")
    norm_failures = []
    for name in common:
        norm = ratios[name] / med
        worst_norm = max(worst_norm, (norm, name))
        if norm > threshold:
            norm_failures.append((name, norm))
        print(f"{name:<44} {baseline[name]:>10.0f}ns {current[name]:>10.0f}ns "
              f"{ratios[name]:>6.2f}x {norm:>5.2f}x")
    print(f"\ngeomean ratio: {geomean:.2f}x, median {med:.2f}x over "
          f"{len(common)} benchmarks (threshold {threshold:.2f}x); "
          f"worst normalized: {worst_norm[1]} at {worst_norm[0]:.2f}x")

    failed = False
    if geomean > threshold:
        print("FAIL: raw geomean past the threshold "
              "(if normalized ratios are flat, the runner is uniformly "
              "slower than the baseline machine — see the docstring)")
        failed = True
    for name, norm in norm_failures:
        print(f"FAIL: {name} regressed {norm:.2f}x relative to the rest "
              f"of the suite (limit {threshold:.2f}x)")
        failed = True
    if failed:
        return 1
    print("OK")
    return 0


# ------------------------------------------------------------ self-test

def _fixture(path, times):
    """Writes a minimal google-benchmark JSON with the given cpu_times."""
    benches = [{"name": n, "run_type": "iteration", "cpu_time": t,
                "real_time": t, "time_unit": "ns"}
               for n, t in times.items()]
    with open(path, "w") as f:
        json.dump({"context": {}, "benchmarks": benches}, f)


def self_test():
    base_times = {"BM_a/1": 100.0, "BM_a/2": 200.0,
                  "BM_b/1": 1000.0, "BM_b/2": 4000.0, "BM_c": 50.0}
    cases = [
        # (label, current times, threshold, expected exit code)
        ("flat run passes", dict(base_times), 2.0, 0),
        ("mild uniform drift passes",
         {n: t * 1.4 for n, t in base_times.items()}, 2.0, 0),
        ("uniform 3x slowdown trips the geomean",
         {n: t * 3.0 for n, t in base_times.items()}, 2.0, 1),
        ("single 5x spike trips the normalized check",
         {**base_times, "BM_b/2": base_times["BM_b/2"] * 5.0}, 2.0, 1),
        ("--threshold 6 tolerates the same spike",
         {**base_times, "BM_b/2": base_times["BM_b/2"] * 5.0}, 6.0, 0),
        ("mild spike passes under the global threshold alone",
         {**base_times, "BM_b/2": base_times["BM_b/2"] * 1.8}, 2.0, 0),
        ("missing benchmarks only warn",
         {n: t for n, t in base_times.items() if n != "BM_c"}, 2.0, 0),
        ("baseline-less benchmarks only warn — even a slow one",
         {**base_times, "BM_new/1": 9e9}, 2.0, 0),
        ("disjoint suites are an error", {"BM_other": 10.0}, 2.0, 1),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, "base.json")
        cur_path = os.path.join(tmp, "cur.json")
        _fixture(base_path, base_times)
        for label, cur_times, threshold, expected in cases:
            _fixture(cur_path, cur_times)
            print(f"--- self-test: {label} (expect exit {expected}) ---")
            got = check(base_path, cur_path, threshold)
            if got != expected:
                print(f"SELF-TEST FAIL: {label}: exit {got}, "
                      f"expected {expected}")
                failures += 1
            print()
    if failures:
        print(f"self-test: {failures}/{len(cases)} cases FAILED")
        return 1
    print(f"self-test: all {len(cases)} cases passed")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", nargs="?", help="committed baseline JSON")
    parser.add_argument("current", nargs="?", help="fresh run JSON")
    parser.add_argument("--threshold", type=float, default=2.0,
                        metavar="FACTOR",
                        help="regression factor for both checks "
                             "(default 2.0)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the checker against synthetic fixtures")
    args = parser.parse_args(argv[1:])

    if args.self_test:
        return self_test()
    if args.baseline is None or args.current is None:
        parser.print_usage()
        return 2
    return check(args.baseline, args.current, args.threshold)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
