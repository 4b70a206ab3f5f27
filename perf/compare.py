#!/usr/bin/env python3
"""Compare two result files of ``perf/run.py``: ``compare.py A.json B.json``.

A is the parent (or the first set of runs), B the change (or the second
set).  One row per workload and end-to-end metric, judged with the
direction and bound that ``BENCHMARK.json`` fixes:

* ``ok``          B is no worse than A by more than the bound;
* ``worse``       B is worse than A by more than the bound;
* ``unresolved``  the rounds inside one run already disagree by more than
                  the bound, so neither verdict can be trusted.

``failed`` and ``lost_acked_writes`` get a row each with a bound of +0.
Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys

from run import load_spec


def spread(metric: dict) -> float:
    """(max - min) / median of a metric's per-round values, 0 for an
    exact metric that has none."""
    rounds = metric.get("rounds")
    if not rounds:
        return 0.0
    return (max(rounds) - min(rounds)) / statistics.median(rounds)


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, change)``: change > 0 means B is worse, as a share of A."""
    change = (b["value"] - a["value"]) / a["value"]
    if better == "higher":
        change = -change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", change
    return ("worse" if change > bound else "ok"), change


def compare(a: dict, b: dict, spec: dict) -> list[tuple]:
    """Rows ``(workload, metric, a, b, change, verdict)``."""
    rows = []
    for wl in spec["workloads"]:
        name = wl["name"]
        wa, wb = a["workloads"][name], b["workloads"][name]
        for count in ("failed", "lost_acked_writes"):
            rows.append((name, count, wa[count], wb[count],
                         float(wb[count] - wa[count]),
                         "worse" if wb[count] > wa[count] else "ok"))
        for decl in spec["end_to_end"]:
            ma, mb = (w["end_to_end"][decl["name"]] for w in (wa, wb))
            v, change = verdict(ma, mb, decl["better"], decl["bound"])
            rows.append((name, decl["name"], ma["value"], mb["value"],
                         change, v))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    rows = compare(docs[0], docs[1], load_spec())
    print(f"{'workload':14s} {'metric':20s} {'A':>14s} {'B':>14s} "
          f"{'B worse by':>11s}  verdict")
    for name, metric, va, vb, change, v in rows:
        shown = ("same" if va == vb else
                 f"{change:+.0f}" if isinstance(va, int) else f"{change:+.2%}")
        print(f"{name:14s} {metric:20s} {va:14.6g} {vb:14.6g} "
              f"{shown:>11s}  {v}")
    worse = [r for r in rows if r[5] == "worse"]
    unresolved = [r for r in rows if r[5] == "unresolved"]
    print(f"{len(rows)} rows: {len(worse)} worse, "
          f"{len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
