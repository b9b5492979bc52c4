"""Endpoint dispatch for the query service, transport-independent.

:class:`QueryService` maps ``(method, path, params)`` to a JSON
response without knowing anything about sockets -- the HTTP plumbing
lives in :mod:`repro.service.server`, and tests can drive the full
validation/cache/compute path by calling :meth:`QueryService.handle`
directly.

Endpoints::

    GET  /healthz                 liveness + version + uptime
    GET  /metrics                 request counters, latency percentiles,
                                  cache hit/miss counters
    GET  /v1/families             the machine-family registry (Table 4)
    GET  /v1/workloads            the traffic-scenario registry
    GET  /v1/bandwidth            measured operational bandwidth
    GET  /v1/catalog              guest x host max-host-size matrix
    POST /v1/emulate              run a guest-on-host emulation
    POST /v1/saturation           offered-load saturation sweep

The ``/v1`` routes, their schemas and their jobs come from
:data:`repro.operations.OPERATIONS`.  Compute endpoints funnel through
:meth:`QueryService._run_job`: the validated request maps to a harness
job, so the job's content hash keys every cache tier -- the optional
memory-mapped :class:`~repro.fabric.snapshot.CatalogSnapshot`
(precomputed cells, consulted first so snapshotted queries never touch
the compute path), the in-process
:class:`~repro.service.cache.TTLCache`, then the on-disk
:class:`~repro.harness.store.ResultStore` -- and a cold request runs
the job in process, once.  Concurrent cold requests for the same job
hash are **single-flighted** (:class:`~repro.service.cache.SingleFlight`):
one computes, the rest wait and share the value.  Responses carry a
``meta.cache`` field (``"snapshot"``, ``"memory"``, ``"store"``,
``"miss"``, or ``"coalesced"`` for a request that drafted behind
another's compute) so clients and benchmarks can see which tier
answered.

There is no per-request compute deadline: the harness deadline is
``SIGALRM``-based and cannot be armed off the main thread, where the
threaded HTTP front-end runs every request.  The request-size bounds in
:mod:`repro.operations` are what keep a request's compute small.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from typing import Any, Mapping

from repro import __version__
from repro.harness import Job, ResultStore
from repro.obs import trace as obs
from repro.operations import (
    OPERATIONS,
    ApiError,
    Operation,
    Schema,
    catalog_jobs,
    client_error,
)
from repro.service import serializers
from repro.service.cache import SingleFlight, TTLCache
from repro.service.metrics import ServiceMetrics

__all__ = ["QueryService"]

# Reusable stand-in for trace_context when no trace id was generated
# (nullcontext instances are reentrant and shareable).
_NO_TRACE = contextlib.nullcontext()


class QueryService:
    """The service core: routing, validation, two-tier cache, metrics."""

    def __init__(
        self,
        store: ResultStore | None = None,
        cache_size: int = 1024,
        ttl: float = 300.0,
        snapshot: Any = None,
        prefork: Any = None,
    ) -> None:
        self.store = store
        self.snapshot = snapshot  # a CatalogSnapshot, or None
        # A repro.service.prefork.WorkerState when this process is one
        # of N forked workers: /metrics then adds the merged
        # cross-worker totals, /healthz identifies the worker.
        self.prefork = prefork
        self.cache = TTLCache(maxsize=cache_size, ttl=ttl)
        self.flight = SingleFlight()
        self.metrics = ServiceMetrics()
        self.started = time.monotonic()
        self._routes: dict[str, dict[str, tuple[Schema | None, Any]]] = {
            "/healthz": {"GET": (None, self._h_healthz)},
            "/metrics": {"GET": (None, self._h_metrics)},
        }
        handlers = {
            "families": self._h_families,
            "workloads": self._h_workloads,
            "catalog": self._h_catalog,
        }
        for op in OPERATIONS.values():
            handler = handlers.get(op.name) or functools.partial(self._h_job, op)
            self._routes[op.route] = {op.method: (op.schema, handler)}
        if os.environ.get("REPRO_SERVICE_DEBUG") == "1":
            # Test-only endpoint: a request whose duration the caller
            # controls makes drain/lifecycle tests deterministic
            # instead of racing real compute times.  Never registered
            # in OPERATIONS, never enabled outside the env flag.
            from repro.operations import Field

            sleep_schema = Schema(
                Field("seconds", "float", default=0.05,
                      minimum=0.0, maximum=30.0),
            )
            self._routes["/debug/sleep"] = {
                "GET": (sleep_schema, self._h_debug_sleep)
            }

    # -- dispatch -----------------------------------------------------------

    def handle(
        self,
        method: str,
        path: str,
        query: Mapping[str, str] | None = None,
        body: bytes = b"",
    ) -> tuple[int, dict[str, Any]]:
        """One request in, ``(status, json_payload)`` out; never raises.

        When tracing is on, the whole request runs under one
        ``service.request`` span tagged with a fresh trace id, which is
        echoed back as ``meta.trace_id`` so a client can find its own
        request in the trace file.
        """
        t0 = time.perf_counter()
        methods = self._routes.get(path)
        label = f"{method} {path}" if methods else "unmatched"
        trace_id = obs.new_trace_id() if obs.enabled() else None
        with obs.trace_context(trace_id) if trace_id else _NO_TRACE:
            with obs.span("service.request", endpoint=label) as sp:
                try:
                    if methods is None:
                        raise ApiError(
                            404, "route_not_found", f"no such route: {path!r}"
                        )
                    if method not in methods:
                        raise ApiError(
                            405,
                            "method_not_allowed",
                            f"{path} supports {sorted(methods)}, not {method}",
                        )
                    schema, handler = methods[method]
                    params = self._params(method, schema, query or {}, body)
                    status, payload = handler(params)
                except Exception as exc:  # a rejection or a bug: JSON either way
                    error = client_error(exc) or ApiError(
                        500, "internal_error", f"{type(exc).__name__}: {exc}"
                    )
                    status, payload = error.status, error.body()
                sp.set(status=status)
        if trace_id is not None and isinstance(payload.get("meta"), dict):
            payload["meta"]["trace_id"] = trace_id
        self.metrics.observe(label, status, time.perf_counter() - t0)
        return status, payload

    def _params(
        self,
        method: str,
        schema: Schema | None,
        query: Mapping[str, str],
        body: bytes,
    ) -> dict[str, Any]:
        if schema is None:
            return {}
        if method == "POST":
            if not body:
                raw: Any = {}
            else:
                try:
                    raw = json.loads(body.decode("utf-8"))
                except (UnicodeDecodeError, ValueError):
                    raise ApiError(
                        400, "invalid_json", "request body is not valid JSON"
                    ) from None
            if not isinstance(raw, dict):
                raise ApiError(
                    400, "invalid_json", "request body must be a JSON object"
                )
        else:
            raw = dict(query)
        return schema.validate(raw)

    # -- the two-tier cached compute path -----------------------------------

    def _run_job(self, job: Job) -> tuple[Any, str]:
        """``(value, tier)``; tier is ``snapshot``/``memory``/``store``/
        ``miss``/``coalesced``.

        Tier order: snapshot (mmap, never touches compute), memory LRU,
        then the single-flighted cold path (disk store, else execute).
        A request that arrives while another request is already
        computing the same job hash waits for it instead of recomputing
        and reports the ``coalesced`` tier.
        """
        if self.snapshot is not None:
            hit, value = self.snapshot.get(job.job_hash)
            if hit:
                obs.event("job.cache_hit", tier="snapshot", fn=job.fn,
                          hash=job.job_hash[:12])
                return value, "snapshot"
        hit, value = self.cache.get(job.job_hash)
        if hit:
            obs.event("job.cache_hit", tier="memory", fn=job.fn,
                      hash=job.job_hash[:12])
            return value, "memory"
        (value, tier), leader = self.flight.run(
            job.job_hash, lambda: self._run_job_cold(job)
        )
        if not leader:
            obs.event("job.coalesced", fn=job.fn, hash=job.job_hash[:12])
            return value, "coalesced"
        return value, tier

    def _run_job_cold(self, job: Job) -> tuple[Any, str]:
        """The leader's path after both fast tiers missed."""
        if self.store is not None:
            hit, value = self.store.get(job)
            if hit:
                obs.event("job.cache_hit", tier="store", fn=job.fn,
                          hash=job.job_hash[:12])
                self.cache.put(job.job_hash, value)
                return value, "store"
        t0 = time.perf_counter()
        # A failure propagates to ``handle``, which maps it to an
        # envelope (a domain ValueError is the client's fault: 422).
        with obs.span("harness.job", fn=job.fn, worker="service"):
            value = job.run()
        if self.store is not None:
            self.store.put(job, value, seconds=time.perf_counter() - t0)
        self.cache.put(job.job_hash, value)
        return value, "miss"

    # -- handlers -----------------------------------------------------------

    def _h_healthz(self, _params: dict) -> tuple[int, dict[str, Any]]:
        payload = {
            "status": "ok",
            "version": __version__,
            "pid": os.getpid(),
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "store": str(self.store.root) if self.store is not None else None,
        }
        if self.prefork is not None:
            payload["worker_index"] = self.prefork.index
        return 200, payload

    def _h_debug_sleep(self, params: dict) -> tuple[int, dict[str, Any]]:
        time.sleep(params["seconds"])
        return 200, {"slept": params["seconds"], "pid": os.getpid()}

    def _h_metrics(self, _params: dict) -> tuple[int, dict[str, Any]]:
        tracer = obs.get_tracer()
        return 200, {
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "endpoints": self.metrics.snapshot(),
            "cache": {
                "memory": self.cache.stats.as_dict(),
                "store": (
                    self.store.stats.as_dict() if self.store is not None else None
                ),
                "snapshot": (
                    self.snapshot.stats() if self.snapshot is not None else None
                ),
                # Single-flight effectiveness: how many requests were
                # spared a recompute by drafting behind an identical
                # in-flight cold request.
                "coalesced": self.flight.coalesced,
                "flight": self.flight.stats(),
            },
            # Live span aggregates + counters when tracing is enabled
            # (null otherwise, so the key is stable for scrapers).
            "trace": tracer.stats() if tracer is not None else None,
            # Merged cross-worker totals when running pre-forked
            # (null in single-process mode, so the key is stable).
            "prefork": (
                self.prefork.metrics_payload(self)
                if self.prefork is not None else None
            ),
        }

    def _h_families(self, _params: dict) -> tuple[int, dict[str, Any]]:
        return 200, serializers.families_payload()

    def _h_workloads(self, _params: dict) -> tuple[int, dict[str, Any]]:
        return 200, serializers.workloads_payload()

    def _h_job(self, op: Operation, params: dict) -> tuple[int, dict[str, Any]]:
        t0 = time.perf_counter()
        value, tier = self._run_job(op.job(params))
        return 200, {"result": value, "meta": self._meta(tier, t0)}

    def _h_catalog(self, params: dict) -> tuple[int, dict[str, Any]]:
        t0 = time.perf_counter()
        tiers = {"snapshot": 0, "memory": 0, "store": 0, "miss": 0,
                 "coalesced": 0}
        cells = []
        for job in catalog_jobs(params):
            value, tier = self._run_job(job)
            tiers[tier] += 1
            cells.append(value)
        payload = serializers.catalog_payload(
            params["guests"], params["hosts"], cells,
            workload=params.get("workload"),
        )
        payload["meta"] = {
            "cache": tiers, "seconds": round(time.perf_counter() - t0, 6)
        }
        return 200, payload

    @staticmethod
    def _meta(tier: str, t0: float) -> dict[str, Any]:
        return {"cache": tier, "seconds": round(time.perf_counter() - t0, 6)}
