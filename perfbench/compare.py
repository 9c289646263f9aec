#!/usr/bin/env python3
"""Compares two recoverd.bench.v2 records cell by cell.

    python3 perfbench/compare.py A.json B.json [--paired]

A is the parent, B the change. For every workload in both records and every
end-to-end metric of BENCHMARK.json it prints B's median change against A's
(positive = worse) and a verdict, one row per workload:

  ok          B's median is not worse than A's by more than the metric's bound
  REGRESSION  it is
  unresolved  one side's IQR/median is wider than the bound, so the medians
              cannot tell; "better" instead when every B run beats every A run
  GAIN        (--paired) B won at least 9 of every 10 alternating pairs and
              the medians differ by more than A's IQR

--paired treats the i-th reps of A and B as one pair (build the records with
run.py --reps 1 --append, alternating the two checkouts) and needs at least
10 pairs. Exits 1 on any regression, on more failed operations in B than in
A, and on any failed check in either record.
"""
import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def worse_by(a, b, better):
    """Relative change from a to b, positive when b is worse."""
    if a == 0:
        return 0.0
    change = b / a - 1.0
    return change if better == "lower" else -change


def beats(x, y, better):
    return x < y if better == "lower" else x > y


def verdict(metric, a, b, paired):
    better, bound = metric["better"], metric["bound"]
    change = worse_by(a["median"], b["median"], better)
    if paired:
        pairs = list(zip(a["values"], b["values"]))
        if len(pairs) < 10 or len(a["values"]) != len(b["values"]):
            return change, "need >=10 pairs"
        wins = sum(beats(y, x, better) for x, y in pairs)
        if wins >= 0.9 * len(pairs) and abs(b["median"] - a["median"]) > a["iqr"]:
            return change, f"GAIN {wins}/{len(pairs)}"
    spread = max(a["iqr"] / a["median"] if a["median"] else 0.0,
                 b["iqr"] / b["median"] if b["median"] else 0.0)
    if spread > bound:
        if all(beats(y, x, better) for x in a["values"] for y in b["values"]):
            return change, "better"
        return change, "unresolved"
    return change, "REGRESSION" if change > bound else "ok"


def failed_checks(record):
    return [f"{w}:{c}" for w, cell in record["workloads"].items()
            for c, v in cell["checks"].items() if v != "pass"]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--paired", action="store_true")
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(args.a) as f:
        rec_a = json.load(f)
    with open(args.b) as f:
        rec_b = json.load(f)

    bad = False
    for label, rec in (("A", rec_a), ("B", rec_b)):
        if failed_checks(rec):
            print(f"{label} has failed checks: {', '.join(failed_checks(rec))}")
            bad = True

    metrics = spec["end_to_end"]
    width = max(len(m["name"]) for m in metrics) + 2
    print(f"{'workload':<22} " + "".join(f"{m['name']:>{width + 14}}" for m in metrics))
    for w in [x["name"] for x in spec["workloads"]]:
        ca, cb = rec_a["workloads"].get(w), rec_b["workloads"].get(w)
        if ca is None or cb is None:
            continue
        cells = []
        for m in metrics:
            a, b = ca["metrics"].get(m["name"]), cb["metrics"].get(m["name"])
            if a is None or b is None:
                cells.append(f"{'-':>{width + 14}}")
                continue
            change, word = verdict(m, a, b, args.paired)
            bad = bad or word == "REGRESSION"
            cells.append(f"{100 * change:>+{width}.1f}% {word:<12}")
        print((f"{w:<22} " + "".join(cells)).rstrip())
        failed_a = ca["metrics"].get("failed", {}).get("median", 0)
        failed_b = cb["metrics"].get("failed", {}).get("median", 0)
        if failed_b > failed_a:
            print(f"{'':<22} more failed operations: {failed_a:g} -> {failed_b:g}")
            bad = True
        if rec_a.get("seed") == rec_b.get("seed") and ca["digests"][:1] != cb["digests"][:1]:
            print(f"{'':<22} outputs differ (digest {ca['digests'][0]} -> {cb['digests'][0]})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
