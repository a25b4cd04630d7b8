#!/usr/bin/env python3
"""Diff a fresh BENCH_kernels.json against the committed baseline.

Usage: perf_diff.py BASELINE CURRENT [--tolerance 0.25]

Entries are matched on (name, params).  For each matched fold_chain cell
the kernel-vs-generic *speedup* is compared — on shared CI runners the
absolute GB/s numbers swing with the neighbours' load, but the speedup is
a ratio of two lanes measured back-to-back on the same machine, so it is
the stable quantity worth guarding.

Even the speedup of one cell can be wrecked by a multi-second load spike
spanning its reps (observed: a generic lane measured 5x slow for one
cell, inflating its ratio 200x+).  P barely moves the per-byte speedup —
the fold chain is (P-1) folds of the same payload — so the guarded
quantity is the *median* speedup per (op, dtype, payload) group across
the P sweep: a single wrecked cell cannot shift a median of four.

A group regresses when current median < baseline median * (1 -
tolerance) AND the current median is below --floor (default 6x, 1.5x
the 4x bar the fast lane promises): on a shared runner the ratio of
two far-above-bar medians routinely drifts 2x with background load,
so beyond-tolerance drift between huge speedups is weather, while a
broken typed lane collapses toward 1x and trips both conditions.  The
script exits 1 if any group regressed.  Groups that
*improved* beyond the tolerance are printed as notes (a too-good jump
usually means the baseline is stale) but do not fail the run —
perf_smoke.sh tells the operator to refresh the baseline instead.
"""

import argparse
import json
import statistics
import sys


def load_groups(path):
    """(op, dtype, payload) -> {P: speedup}"""
    with open(path) as f:
        doc = json.load(f)
    groups = {}
    for e in doc.get("entries", []):
        if e.get("name") != "fold_chain":
            continue
        p = e["params"]
        key = (p["op"], p["dtype"], int(p["payload"]))
        groups.setdefault(key, {})[int(p["P"])] = e["speedup"]
    return groups


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.25)
    ap.add_argument("--floor", type=float, default=6.0,
                    help="only fail a group whose current median speedup "
                         "is also below this absolute value")
    args = ap.parse_args()

    base = load_groups(args.baseline)
    cur = load_groups(args.current)
    if not base:
        print(f"perf_diff: no fold_chain cells in baseline {args.baseline}",
              file=sys.stderr)
        return 2

    regressions, improvements, missing = [], [], []
    for key, bcells in sorted(base.items()):
        ccells = cur.get(key)
        if not ccells:
            missing.append(key)
            continue
        b = statistics.median(bcells.values())
        c = statistics.median(ccells.values())
        delta = (c - b) / b
        tag = ""
        if delta < -args.tolerance and c < args.floor:
            regressions.append((key, b, c, delta))
            tag = "  << REGRESSION"
        elif delta < -args.tolerance:
            tag = "  (drifted down, still >= floor)"
        elif delta > args.tolerance:
            improvements.append((key, b, c, delta))
            tag = "  (faster than baseline)"
        op, dtype, payload = key
        print(f"{op}/{dtype} payload={payload:>9}  "
              f"baseline median {b:8.2f}x  current median {c:8.2f}x  "
              f"{delta:+7.1%}{tag}")

    for key in sorted(set(cur) - set(base)):
        print(f"note: group {key} present in current but not in baseline")
    for key in missing:
        print(f"note: group {key} present in baseline but missing from current")

    print()
    print(f"perf_diff: {len(base)} baseline groups, "
          f"{len(regressions)} regressed beyond -{args.tolerance:.0%}, "
          f"{len(improvements)} improved beyond +{args.tolerance:.0%}")
    if improvements:
        print("perf_diff: consider refreshing bench/baselines/ "
              "(run perf_smoke.sh --rebaseline)")
    if regressions:
        print("perf_diff: FAIL")
        return 1
    print("perf_diff: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
