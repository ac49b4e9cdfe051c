#!/usr/bin/env python3
"""Compare two result sets, one row per workload and end-to-end metric.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds the lines that `run.py --record FILE` appends; untraced
runs are compared.  Runs of one workload with the same seed on both sides
form a pair.  Each row gives both medians and quartiles, the pairs the
change won (ties count for neither side), and a verdict under the bounds
in BENCHMARK.json:

  improved    the change won at least 9/10 of the pairs, and the medians
              differ by more than the parent's interquartile distance;
  worse       the change's median is worse than the parent's by more than
              the bound (a share of the parent's median);
  unresolved  either side's interquartile spread exceeds the bound, and not
              every run of the change beats every run of the parent;
  same        otherwise.
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict

import summary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path: str) -> dict:
    """{workload: {seed: record}} of the untraced runs in one file."""
    runs: dict = defaultdict(dict)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                if not rec["trace"]:
                    runs[rec["workload"]][rec["seed"]] = rec
    return runs


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            lower_is_better: bool, bound: float) -> tuple[str, int]:
    """(verdict, pairs the change won) for one metric on one workload."""
    def better(a, b):
        return a < b if lower_is_better else a > b

    wins = sum(1 for p, c in pairs if better(c, p))
    p1, pm, p3 = summary.quartiles(parent)
    cm = summary.median(change)
    gain = (pm - cm) if lower_is_better else (cm - pm)
    if pairs and wins >= 0.9 * len(pairs) and gain > p3 - p1:
        return "improved", wins
    if -gain > bound * abs(pm):
        return "worse", wins
    beats_all = all(better(c, p) for c in change for p in parent)
    if max(summary.spread(parent), summary.spread(change)) > bound and not beats_all:
        return "unresolved", wins
    return "same", wins


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = json.load(fh)["end_to_end"]

    print(f"{'workload':16s} {'metric':12s} {'parent median [q1, q3]':>32s} "
          f"{'change median [q1, q3]':>32s} {'wins':>6s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        a, b = parent[workload], change[workload]
        seeds = sorted(set(a) & set(b))
        for m in metrics:
            name = m["name"]

            def values(runs):
                return [r["result"]["metrics"][name]["value"] for r in runs.values()
                        if name in r["result"]["metrics"]]

            va, vb = values(a), values(b)
            if not va or not vb:
                continue
            pairs = [(a[s]["result"]["metrics"][name]["value"],
                      b[s]["result"]["metrics"][name]["value"]) for s in seeds]
            v, wins = verdict(va, vb, pairs, m["better"] == "lower", m["bound"])
            qa, qb = summary.quartiles(va), summary.quartiles(vb)
            print(f"{workload:16s} {name:12s} "
                  f"{qa[1]:12.5g} [{qa[0]:.5g}, {qa[2]:.5g}]".ljust(62)
                  + f"{qb[1]:12.5g} [{qb[0]:.5g}, {qb[2]:.5g}]".ljust(33)
                  + f"{wins:>3d}/{len(pairs):<3d} {v}")
        for label, runs in (("parent", a), ("change", b)):
            failed = sum(r["result"]["failed"] for r in runs.values())
            attempted = sum(r["result"]["attempted"] for r in runs.values())
            print(f"{workload:16s} {label} failed {failed}/{attempted} checks over {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
