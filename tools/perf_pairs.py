#!/usr/bin/env python3
"""Alternating parent/change pairs of the end-to-end benchmark.

  perf_pairs.py --parent DIR --change DIR --workload W --pairs N \\
      --seconds S --seed-base B [--claim METRIC]
  perf_pairs.py --self-test

Pair i runs `perfbench/run.py --seed B+i --trace 0` in both checkouts,
the parent first in even pairs, without CARGO_TARGET_DIR so that each
checkout builds into its own .bench_build. Exits nonzero when a pair's
digest or failed count differ. For each end-to-end metric of
BENCHMARK.json it prints the parent's median [q1, q3], the change's
median, the change in percent and in how many pairs the change was
better, followed by a verdict:
  gain        the change is better in at least nine tenths of the pairs
              (ties count for neither side) and the medians differ, in
              its favour, by more than the parent's interquartile range;
  worse       the change's median is worse than the parent's by more
              than the metric's bound;
  unresolved  the parent's interquartile range, relative to its median,
              is wider than the bound, unless every change run beats
              every parent run;
  flat        otherwise.
--claim METRIC also exits 1 unless METRIC's verdict is gain and no
bounded metric's is worse. A second table, marked
unbounded, gives the same columns for the runs' other end-to-end
metrics (the page and request latencies, the tails and answers_per_s,
where higher is better), so that a side effect outside the bounds
shows in the pairs too. Last it prints each side's
median `measured_s` from the runs' digest lines: the wall time of the
measured phase, which moves with the host's speed, so two sides that
did the same work in clearly different times ran on a drifting host.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_side(tree, workload, seed, seconds):
    """One untraced run in tree: its digest, failed count and metrics."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    row = {}
    for line in out.splitlines():
        if line.startswith('{"end_to_end"'):
            e2e = json.loads(line)["end_to_end"]
            row["metrics"] = {k: v["value"] for k, v in e2e.items()}
        elif line.startswith('{"digest"'):
            done = json.loads(line)
            row["digest"] = done["digest"]
            row["failed"] = done["requests_failed"]
            row["measured_s"] = done["measured_s"]
    return row


def quartiles(values):
    if len(values) == 1:
        return values * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def row_line(pairs, m):
    """One metric's table row and, for a bounded metric, its verdict
    (None for an unbounded one)."""
    name, bound = m["name"], m["bound"]
    sign = 1 if m["better"] == "lower" else -1  # > 0: the change is better
    pv = [p["metrics"][name] for p, _ in pairs]
    cv = [c["metrics"][name] for _, c in pairs]
    q1, pm, q3 = quartiles(pv)
    cm = statistics.median(cv)
    pct = (cm - pm) / pm * 100 if pm else 0.0
    better = sum(sign * (p - c) > 0 for p, c in zip(pv, cv))
    verdict = None
    if bound is not None:
        gained = sign * (pm - cm)
        beats_all = all(sign * (p - c) > 0 for p in pv for c in cv)
        if 10 * better >= 9 * len(pairs) and gained > q3 - q1:
            verdict = "gain"
        elif pm and -gained / pm > bound:
            verdict = "worse"
        elif pm and (q3 - q1) / pm > bound and not beats_all:
            verdict = "unresolved"
        else:
            verdict = "flat"
    note = f" {verdict}" if verdict else ""
    return (f"| `{name}` | {pm:.4g} [{q1:.4g}, {q3:.4g}] | {cm:.4g} "
            f"| {pct:+.1f}% | {better}/{len(pairs)}{note} |", verdict)


def unbounded(pairs, metrics):
    """The runs' end-to-end metrics that BENCHMARK.json does not bound, in
    the runs' order; a rate (a name ending in _per_s) is better higher."""
    bounded = {m["name"] for m in metrics}
    return [{"name": n, "bound": None,
             "better": "higher" if n.endswith("_per_s") else "lower"}
            for n in pairs[0][0]["metrics"] if n not in bounded]


def table(pairs, metrics):
    """Returns the report lines for (parent, change) rows, whether every
    pair did the same work and each bounded metric's verdict."""
    lines, same_work = [], True
    for i, (p, c) in enumerate(pairs):
        if (p["digest"], p["failed"]) != (c["digest"], c["failed"]):
            same_work = False
            lines.append(f"pair {i}: parent {p['digest']} failed {p['failed']}"
                         f" != change {c['digest']} failed {c['failed']}")
    header = ["| metric | parent median [q1, q3] | change median | change "
              "| change better |", "|---|---|---|---|---|"]
    rows = [row_line(pairs, m) for m in metrics]
    lines += header + [line for line, _ in rows]
    lines += ["unbounded:"] + header
    lines += [row_line(pairs, m)[0] for m in unbounded(pairs, metrics)]
    walls = [statistics.median(side["measured_s"] for side in sides)
             for sides in zip(*pairs)]
    lines.append(f"`measured_s` median: parent {walls[0]:.4g} s, "
                 f"change {walls[1]:.4g} s")
    verdicts = {m["name"]: v for m, (_, v) in zip(metrics, rows)}
    return lines, same_work, verdicts


def claim_holds(verdicts, claim):
    """A claimed gain stands when its metric reads gain and no bounded
    metric reads worse."""
    return (verdicts.get(claim) == "gain"
            and "worse" not in verdicts.values())


def self_test():
    metrics = [{"name": "t_ms", "better": "lower", "bound": 0.2}]

    def row(value, digest="d0", failed=0, wall=30.0, **others):
        return {"digest": digest, "failed": failed, "measured_s": wall,
                "metrics": {"t_ms": value, **others}}

    clean = [(row(10.0 + i % 2), row(8.0)) for i in range(4)]
    spread = (10.0, 12.0, 18.0, 24.0)  # quartiles 11.5, 15, 19.5
    cases = [
        # (label, pairs, same work expected, text the table must hold)
        ("a clean table", clean, True,
         "| `t_ms` | 10.5 [10, 11] | 8 | -23.8% | 4/4 gain |"),
        ("a digest mismatch", clean + [(row(10.0), row(8.0, "d1"))], False,
         "pair 4: parent d0 failed 0 != change d1 failed 0"),
        ("a failed-count mismatch",
         clean + [(row(10.0), row(8.0, failed=1))], False, "pair 4:"),
        # Better in 9 of 10 pairs is a gain; in 8 of 10 it is not.
        ("a gain in nine of ten pairs",
         [(row(10.0), row(8.0 if i else 10.0)) for i in range(10)], True,
         "| 8 | -20.0% | 9/10 gain |"),
        ("eight of ten pairs",
         [(row(10.0), row(8.0 if i > 1 else 10.0)) for i in range(10)],
         True, "| 8 | -20.0% | 8/10 flat |"),
        # Better in every pair, by less than the parent's spread.
        ("a win inside the parent's spread",
         [(row(10.0 + i), row(9.5 + i)) for i in range(4)], True,
         "| 11 | -4.3% | 4/4 flat |"),
        ("a worse metric",
         [(row(10.0 + i % 2), row(13.0)) for i in range(4)], True,
         "| 13 | +23.8% | 0/4 worse |"),
        ("an unresolved metric",
         [(row(v), row(c)) for v, c in zip(spread, (11.0, 13.0, 17.0, 20.0))],
         True, "| 15 | +0.0% | 2/4 unresolved |"),
        # A wide parent spread is no excuse when every change run beats
        # every parent run: the change is 9 against 10 at best.
        ("every change run beats every parent run",
         [(row(v), row(9.0)) for v in spread], True,
         "| 9 | -40.0% | 4/4 flat |"),
        ("a flat metric", [(row(10.0 + i % 2), row(10.6)) for i in range(4)],
         True, "| 10.6 | +1.0% | 2/4 flat |"),
        ("the median wall time of each side",
         [(row(10.0, wall=w), row(8.0, wall=w + 5.0))
          for w in (30.0, 31.0, 40.0)], True,
         "`measured_s` median: parent 31 s, change 36 s"),
        # Unbounded metrics: a rate is better higher, and no bound means
        # no "unresolved" note however wide the parent's runs spread.
        ("the unbounded table",
         [(row(10.0, answers_per_s=100.0 + v, page_us_p50=v),
           row(8.0, answers_per_s=90.0, page_us_p50=2.0 * v))
          for v in (10.0, 20.0, 40.0, 80.0)], True,
         "unbounded:\n| metric | parent median [q1, q3] | change median "
         "| change | change better |\n|---|---|---|---|---|\n"
         "| `answers_per_s` | 130 [117.5, 150] | 90 | -30.8% | 0/4 |\n"
         "| `page_us_p50` | 30 [17.5, 50] | 60 | +100.0% | 0/4 |"),
    ]
    failures = 0
    for label, pairs, want_same, want_text in cases:
        lines, same, _ = table(pairs, metrics)
        text = "\n".join(lines)
        if same != want_same or want_text not in text:
            failures += 1
            print(f"SELF-TEST FAIL: {label}:\n{text}")
    # --claim: a gain stands only while no bounded metric reads worse.
    claims = [
        ({"t_ms": "gain", "u_ms": "flat"}, "t_ms", True),
        ({"t_ms": "gain", "u_ms": "worse"}, "t_ms", False),
        ({"t_ms": "flat", "u_ms": "gain"}, "t_ms", False),
        ({"t_ms": "gain"}, "u_ms", False),
    ]
    for verdicts, claim, want in claims:
        if claim_holds(verdicts, claim) != want:
            failures += 1
            print(f"SELF-TEST FAIL: claim {claim} on {verdicts}")
    total = len(cases) + len(claims)
    print(f"self-test: {total - failures}/{total} cases passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent")
    parser.add_argument("--change")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--claim", metavar="METRIC")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not (args.parent and args.change and args.workload):
        parser.error("--parent, --change and --workload are required")

    with open(ROOT / "BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    if args.claim and args.claim not in {m["name"] for m in metrics}:
        parser.error(f"--claim {args.claim} is no bounded metric")
    pairs = []
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        rows = {side: run_side(getattr(args, side), args.workload, seed,
                               args.seconds) for side in order}
        pairs.append((rows["parent"], rows["change"]))
        print(f"pair {i} seed {seed}: {json.dumps(pairs[-1])}",
              file=sys.stderr)
    lines, same_work, verdicts = table(pairs, metrics)
    last = args.seed_base + args.pairs - 1
    print(f"{args.workload}, seeds {args.seed_base}-{last}, "
          f"{args.seconds:g} s, --trace 0")
    print("\n".join(lines))
    claimed = not args.claim or claim_holds(verdicts, args.claim)
    if not claimed:
        print(f"claim {args.claim}: not met")
    return 0 if same_work and claimed else 1


if __name__ == "__main__":
    sys.exit(main())
