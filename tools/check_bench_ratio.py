#!/usr/bin/env python3
"""Same-run speedup gate for the perf-smoke CI job.

Reads one google-benchmark JSON run and fails unless the SLOW arm's
real_time divided by the FAST arm's real_time exceeds MIN. Both arms
come from the same run on the same machine, so the gate does not
depend on the runner's speed.

Usage:
  check_bench_ratio.py JSON SLOW FAST MIN [--calibration SLOW FAST MIN]
  check_bench_ratio.py --self-test

SLOW and FAST are exact benchmark names (aggregate rows are ignored).
A MIN below 1 bounds a slowdown instead of requiring a speedup: FAST
must take less than 1/MIN times SLOW's real_time.
A gate on a parallel speedup needs the cores it assumes. --calibration
names two arms of the same run that measure the host, such as a spin
loop on 1 and on 3 threads: unless their ratio exceeds its MIN, the
gate prints "not measurable" and passes, neither checked nor failed.
A missing arm or a non-positive time is an error. --self-test runs the
gate against synthetic fixtures and exits nonzero on any surprise; CI
runs it so the gate itself is guarded.
"""

import argparse
import json
import math
import os
import sys
import tempfile


def load_real_times(path):
    with open(path) as f:
        data = json.load(f)
    times = {}
    for bench in data.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue
        times[bench["name"]] = float(bench["real_time"])
    return times


def check(path, slow, fast, minimum, calibration=None):
    """The gate proper; returns a process exit code. calibration is None
    or the (slow, fast, minimum) of the arms that measure the host."""
    times = load_real_times(path)
    names = (slow, fast) + (calibration[:2] if calibration else ())
    missing = [name for name in names if name not in times]
    if missing:
        print(f"error: missing from {path}: {', '.join(missing)}")
        return 1
    for name in names:
        if not (math.isfinite(times[name]) and times[name] > 0):
            print(f"error: {name} has real_time {times[name]}")
            return 1
    if calibration:
        cal_slow, cal_fast, cal_min = calibration
        cal_ratio = times[cal_slow] / times[cal_fast]
        print(f"calibration {cal_slow} / {cal_fast}: {cal_ratio:.2f}x "
              f"(must exceed {cal_min:g}x)")
        if cal_ratio <= cal_min:
            print("not measurable: this run's host lacks the cores")
            return 0
    ratio = times[slow] / times[fast]
    print(f"{slow}: real_time {times[slow]:.4g}")
    print(f"{fast}: real_time {times[fast]:.4g}")
    print(f"ratio {ratio:.2f}x (must exceed {minimum:g}x)")
    if ratio <= minimum:
        print("FAIL")
        return 1
    print("OK")
    return 0


# ------------------------------------------------------------ self-test

def _fixture(path, rows):
    """Writes a minimal google-benchmark JSON from (name, run_type, time)."""
    benches = [{"name": n, "run_type": t, "real_time": rt, "cpu_time": rt,
                "time_unit": "ns"} for n, t, rt in rows]
    with open(path, "w") as f:
        json.dump({"context": {}, "benchmarks": benches}, f)


def self_test():
    it = "iteration"
    one, three = "BM_Spin/threads:1", "BM_Spin/threads:3"
    spin = [(one, it, 300.0), (three, it, 100.0)]  # scales 3x
    flat = [(one, it, 300.0), (three, it, 250.0)]  # scales 1.2x
    calibration = (one, three, 2.5)
    cases = [
        # (label, rows, minimum, expected exit code[, calibration])
        ("a wide ratio passes",
         [("BM_Slow", it, 1000.0), ("BM_Fast", it, 100.0)], 3.0, 0),
        ("a narrow ratio fails",
         [("BM_Slow", it, 250.0), ("BM_Fast", it, 100.0)], 3.0, 1),
        ("a ratio equal to MIN fails",
         [("BM_Slow", it, 300.0), ("BM_Fast", it, 100.0)], 3.0, 1),
        ("aggregate rows are ignored",
         [("BM_Slow", it, 1000.0), ("BM_Fast", it, 100.0),
          ("BM_Fast", "aggregate", 900.0)], 3.0, 0),
        ("a missing arm is an error",
         [("BM_Slow", it, 1000.0)], 3.0, 1),
        ("a zero time is an error",
         [("BM_Slow", it, 1000.0), ("BM_Fast", it, 0.0)], 3.0, 1),
        # MIN below 1 bounds how much slower FAST may be: here under 3x.
        ("a MIN below 1 passes a FAST arm 2.5x slower",
         [("BM_Slow", it, 100.0), ("BM_Fast", it, 250.0)], 0.33, 0),
        ("a MIN below 1 fails a FAST arm 10x slower",
         [("BM_Slow", it, 100.0), ("BM_Fast", it, 1000.0)], 0.33, 1),
        # A calibration that scales lets the gate decide either way.
        ("a calibrated run passes a wide ratio",
         [("BM_Slow", it, 200.0), ("BM_Fast", it, 100.0)] + spin, 1.3, 0,
         calibration),
        ("a calibrated run fails a narrow ratio",
         [("BM_Slow", it, 120.0), ("BM_Fast", it, 100.0)] + spin, 1.3, 1,
         calibration),
        # One that does not scale passes a ratio the gate would fail.
        ("an uncalibrated run is not measurable",
         [("BM_Slow", it, 120.0), ("BM_Fast", it, 100.0)] + flat, 1.3, 0,
         calibration),
        ("a missing calibration arm is an error",
         [("BM_Slow", it, 200.0), ("BM_Fast", it, 100.0)] + spin[:1], 1.3, 1,
         calibration),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "run.json")
        for label, rows, minimum, expected, *cal in cases:
            _fixture(path, rows)
            print(f"--- self-test: {label} (expect exit {expected}) ---")
            got = check(path, "BM_Slow", "BM_Fast", minimum, *cal)
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
    parser.add_argument("json", nargs="?", help="google-benchmark JSON run")
    parser.add_argument("slow", nargs="?", help="name of the slower arm")
    parser.add_argument("fast", nargs="?", help="name of the faster arm")
    parser.add_argument("min", nargs="?", type=float,
                        help="the ratio slow/fast must exceed this")
    parser.add_argument("--calibration", nargs=3,
                        metavar=("SLOW", "FAST", "MIN"),
                        help="arms of the same run whose ratio must exceed "
                             "MIN for the gate to be measurable")
    parser.add_argument("--self-test", action="store_true",
                        help="run the gate against synthetic fixtures")
    args = parser.parse_args(argv[1:])

    if args.self_test:
        return self_test()
    if args.min is None:
        parser.print_usage()
        return 2
    calibration = None
    if args.calibration:
        cal_slow, cal_fast, cal_min = args.calibration
        calibration = (cal_slow, cal_fast, float(cal_min))
    return check(args.json, args.slow, args.fast, args.min, calibration)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
