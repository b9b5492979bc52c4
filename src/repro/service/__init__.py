"""Threaded JSON-over-HTTP query service over the reproduction's core.

A long-lived, stdlib-only (``http.server``) front-end that turns the
one-shot CLI queries into a service: request validation against
declarative schemas, a two-tier response cache (in-process LRU+TTL in
front of the sweep harness's on-disk :class:`~repro.harness.store.ResultStore`),
per-endpoint metrics with latency percentiles, a worker cap, and
graceful drain on SIGTERM.  Start it with ``python -m repro serve``;
see ``docs/SERVICE.md`` for the endpoint and error-code reference.

Layering: :mod:`repro.operations` (the request schemas and jobs, shared
with the CLI) -> :mod:`app` (dispatch + cache + compute via
:mod:`repro.harness`) -> :mod:`server` (HTTP transport);
:mod:`cache`/:mod:`metrics` are the service-local state,
:mod:`serializers` is shared with the CLI ``--json`` flags.
"""

from repro.operations import MAX_MACHINE_SIZE, ApiError, Field, Schema
from repro.service.app import QueryService
from repro.service.cache import CacheStats, TTLCache
from repro.service.metrics import ServiceMetrics, percentile
from repro.service.prefork import (
    MetricsDir,
    PreforkUnavailableError,
    serve_prefork,
)
from repro.service.server import ServiceServer, create_server, serve

__all__ = [
    "ApiError",
    "CacheStats",
    "Field",
    "MAX_MACHINE_SIZE",
    "MetricsDir",
    "PreforkUnavailableError",
    "QueryService",
    "Schema",
    "ServiceMetrics",
    "ServiceServer",
    "TTLCache",
    "create_server",
    "percentile",
    "serve",
    "serve_prefork",
]
