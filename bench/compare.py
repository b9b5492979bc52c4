"""Compare two sets of benchmark runs: ``python3 bench/compare.py A.jsonl B.jsonl``.

``A`` is the parent, ``B`` the change; each file holds the JSON lines
``run.py --out`` appends, one per workload and run.  For every
(workload, metric) pair this prints each side's median and quartiles
and a verdict:

* ``worse``      -- B's median is worse than A's by more than the
  metric's bound, and either the spread is within the bound or every B
  run is worse than every A run.  Any rise in the mean ``failed_ratio``
  is worse, so one failing run is enough.
* ``better``     -- B wins at least 9 of 10 paired runs (ties count for
  neither side), the medians differ by more than A's quartile spread,
  and the spread is within the bound or every B run beats every A run.
* ``unresolved`` -- neither, and the spread (the wider of the two
  sides' quartile distances, as a share of the median) exceeds the
  bound: the runs cannot show a change of that size either way.
* ``unchanged``  -- otherwise.

Runs are paired in file order, so alternate which side runs first when
making them.  The exit status is 1 when any pair is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys

from metricdefs import Metric, gated
from quantiles import quartiles

#: Share of paired runs the change must win before a gain counts.
WIN_SHARE = 0.9


def load(path: str) -> dict[str, list[dict]]:
    """Run records by workload, in file order."""
    runs: dict[str, list[dict]] = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                record = json.loads(line)
                runs.setdefault(record["workload"], []).append(record)
    return runs


def _spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else (0.0 if q3 == q1 else math.inf)


def verdict(metric: Metric, a: list[float], b: list[float]) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    if metric.bound == 0.0:  # may not rise at all, not even in one run
        return "worse" if sign * (statistics.fmean(b) - statistics.fmean(a)) > 0 else "unchanged"
    ma, mb = statistics.median(a), statistics.median(b)
    worse_by = sign * (mb - ma) / abs(ma) if ma else sign * (mb - ma)
    all_worse = min(sign * x for x in b) > max(sign * x for x in a)
    all_better = max(sign * x for x in b) < min(sign * x for x in a)
    resolved = max(_spread(a), _spread(b)) <= metric.bound
    if worse_by > metric.bound and (resolved or all_worse):
        return "worse"
    pairs = list(zip(a, b))
    wins = sum(1 for x, y in pairs if sign * y < sign * x)
    q1, _, q3 = quartiles(a)
    if (
        wins >= math.ceil(WIN_SHARE * len(pairs))
        and sign * (ma - mb) > q3 - q1
        and (resolved or all_better)
    ):
        return "better"
    return "unchanged" if resolved or all_better else "unresolved"


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]]) -> list[tuple]:
    rows = []
    for workload in sorted(set(parent) & set(change)):
        for metric in gated(workload):
            a = [r["metrics"][metric.name] for r in parent[workload] if metric.name in r["metrics"]]
            b = [r["metrics"][metric.name] for r in change[workload] if metric.name in r["metrics"]]
            if a and b:
                rows.append((workload, metric, a, b, verdict(metric, a, b)))
    return rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="compare two sets of bench/run.py --out records")
    ap.add_argument("parent", help="runs of the parent commit (JSON lines)")
    ap.add_argument("change", help="runs of the change (JSON lines)")
    args = ap.parse_args(argv)
    rows = compare(load(args.parent), load(args.change))
    if not rows:
        print("no workload appears in both files", file=sys.stderr)
        return 2
    print(f"{'workload':<13} {'metric':<20} {'unit':<8} "
          f"{'A q1 / median / q3':>32} {'B q1 / median / q3':>32}  n    verdict")
    for workload, metric, a, b, v in rows:
        qa, qb = quartiles(a), quartiles(b)
        print(f"{workload:<13} {metric.name:<20} {metric.unit:<8} "
              f"{' / '.join(f'{x:.4g}' for x in qa):>32} "
              f"{' / '.join(f'{x:.4g}' for x in qb):>32}  {len(a)}:{len(b):<3} {v}")
    return 1 if any(v == "worse" for *_, v in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
