"""Latency statistics for load generation: a mergeable log histogram.

A load test (or a long-lived server) observes an unbounded stream of
latencies but can only afford bounded memory, and a pre-fork service
observes it in several processes at once.  :class:`LatencyHistogram`
answers both: it counts each observation into one of a fixed set of
logarithmic buckets (:data:`BUCKET_EDGES`, a module constant, so every
process shares one layout), which

* bounds memory by the number of buckets, however long the stream;
* spans the whole stream -- an early spike never ages out;
* merges exactly: two histograms add their bucket counts, so the
  percentiles of a merge are those of one histogram fed both streams.

``count``, ``max`` and the total behind ``mean`` (integer nanoseconds,
so sums do not depend on the order of merges) are exact.  A percentile
is the upper edge of the bucket holding its nearest-rank observation,
clamped to the max: never below the exact value and, for latencies of
at least 1 us, at most 1% above it, because consecutive edges differ
by a factor of 1.01.

The histogram is thread-safe (one lock around every read and write).
:func:`percentile` is the exact nearest-rank rule the buckets bound.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left
from typing import Any

__all__ = ["BUCKET_EDGES", "LatencyHistogram", "percentile"]


def _edges(lowest: float, highest: float, growth: float) -> tuple[float, ...]:
    edges = [lowest]
    while edges[-1] < highest:
        # Each edge is the float product of the one before, so an edge
        # never exceeds ``growth`` times any value above the edge below.
        edges.append(edges[-1] * growth)
    return (*edges, math.inf)


#: Upper bucket edges in seconds: 1 us to past one hour in steps of 1%,
#: then one overflow bucket.  Bucket ``i`` holds (edge[i-1], edge[i]].
BUCKET_EDGES = _edges(1e-6, 3600.0, 1.01)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, round(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class LatencyHistogram:
    """Counts of a latency stream in the fixed :data:`BUCKET_EDGES`."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._buckets: dict[int, int] = {}
        self.count = 0
        self.total_ns = 0
        self.max = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency observation (seconds)."""
        index = bisect_left(BUCKET_EDGES, seconds)
        with self._lock:
            self.count += 1
            self.total_ns += round(seconds * 1e9)
            if seconds > self.max:
                self.max = seconds
            self._buckets[index] = self._buckets.get(index, 0) + 1

    def merge(self, other: LatencyHistogram) -> None:
        """Add ``other``'s observations to this histogram."""
        record = other.as_dict()
        with self._lock:
            self.count += record["count"]
            self.total_ns += record["total_ns"]
            self.max = max(self.max, record["max"])
            for index, n in record["buckets"]:
                self._buckets[index] = self._buckets.get(index, 0) + n

    def quantile(self, q: float) -> float:
        """Percentile ``q`` (in [0, 100]) in seconds: the upper edge of
        the bucket holding the nearest-rank observation, clamped to the
        max; 0.0 before any observation."""
        with self._lock:
            if not self.count:
                return 0.0
            rank = max(1, round(q / 100.0 * self.count))
            seen = 0
            for index in sorted(self._buckets):
                seen += self._buckets[index]
                if seen >= rank:
                    break
            return min(BUCKET_EDGES[index], self.max)

    def summary_ms(self) -> dict[str, Any]:
        """JSON-ready count/mean/p50/p95/p99/max, in milliseconds."""
        with self._lock:
            count = self.count
            return {
                "count": count,
                "mean": round(self.total_ns / count / 1e6, 3) if count else 0.0,
                "p50": round(self.quantile(50) * 1000.0, 3),
                "p95": round(self.quantile(95) * 1000.0, 3),
                "p99": round(self.quantile(99) * 1000.0, 3),
                "max": round(self.max * 1000.0, 3),
            }

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready raw record; :meth:`from_dict` rebuilds it."""
        with self._lock:
            return {
                "count": self.count,
                "total_ns": self.total_ns,
                "max": self.max,
                "buckets": sorted(self._buckets.items()),
            }

    @classmethod
    def from_dict(cls, record: dict[str, Any]) -> LatencyHistogram:
        """The histogram :meth:`as_dict` wrote (``KeyError``,
        ``TypeError`` or ``ValueError`` on a malformed record)."""
        hist = cls()
        hist.count = int(record["count"])
        hist.total_ns = int(record["total_ns"])
        hist.max = float(record["max"])
        hist._buckets = {int(i): int(n) for i, n in record["buckets"]}
        if sum(hist._buckets.values()) != hist.count or not all(
            0 <= i < len(BUCKET_EDGES) for i in hist._buckets
        ):
            raise ValueError("not a LatencyHistogram record")
        return hist
