"""Live request metrics for the query service.

One :class:`ServiceMetrics` instance per server process records, per
endpoint (``"GET /v1/bandwidth"``, ... -- route templates, never raw
paths, so cardinality is fixed):

* request and error (status >= 400) counts over the server's lifetime;
* a :class:`~repro.loadgen.stats.LatencyHistogram` over *every* request
  the process ever served: memory is bounded by its fixed bucket
  layout, ``count``/``mean``/``max`` are exact, and each percentile is
  at most 1% above the exact one.

:meth:`ServiceMetrics.records` exports the raw counts and buckets;
:meth:`ServiceMetrics.add` adds such records from another process, so
the pre-fork tier (:mod:`repro.service.prefork`) sums its workers'
records and renders the cluster with the same :meth:`snapshot` one
process uses -- merged percentiles included.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.loadgen.stats import LatencyHistogram, percentile

__all__ = ["ServiceMetrics", "percentile"]


class _EndpointStats:
    __slots__ = ("requests", "errors", "latency")

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0
        self.latency = LatencyHistogram()


class ServiceMetrics:
    """Per-endpoint counters + latency histograms, thread-safe."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._endpoints: dict[str, _EndpointStats] = {}

    def _stats(self, endpoint: str) -> _EndpointStats:
        stats = self._endpoints.get(endpoint)
        if stats is None:
            stats = self._endpoints[endpoint] = _EndpointStats()
        return stats

    def observe(self, endpoint: str, status: int, seconds: float) -> None:
        """Record one completed request (called once per response)."""
        with self._lock:
            stats = self._stats(endpoint)
            stats.requests += 1
            if status >= 400:
                stats.errors += 1
            stats.latency.observe(seconds)

    def snapshot(self) -> dict[str, Any]:
        """JSON-ready ``{endpoint: {requests, errors, latency_ms}}``."""
        with self._lock:
            return {
                endpoint: {
                    "requests": stats.requests,
                    "errors": stats.errors,
                    "latency_ms": stats.latency.summary_ms(),
                }
                for endpoint, stats in sorted(self._endpoints.items())
            }

    def records(self) -> dict[str, Any]:
        """JSON-ready raw ``{endpoint: {requests, errors, latency}}``,
        the input :meth:`add` takes."""
        with self._lock:
            return {
                endpoint: {
                    "requests": stats.requests,
                    "errors": stats.errors,
                    "latency": stats.latency.as_dict(),
                }
                for endpoint, stats in sorted(self._endpoints.items())
            }

    def add(self, records: dict[str, Any]) -> None:
        """Add another process's :meth:`records`.  A malformed record
        raises (``KeyError``, ``TypeError`` or ``ValueError``) before
        anything is added."""
        parsed = [
            (endpoint, int(record["requests"]), int(record["errors"]),
             LatencyHistogram.from_dict(record["latency"]))
            for endpoint, record in records.items()
        ]
        with self._lock:
            for endpoint, requests, errors, latency in parsed:
                stats = self._stats(endpoint)
                stats.requests += requests
                stats.errors += errors
                stats.latency.merge(latency)
