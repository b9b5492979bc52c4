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

Compute endpoints funnel through :meth:`QueryService._run_job`: the
validated request *is* a harness job spec, so the job's content hash
keys every cache tier -- the optional memory-mapped
:class:`~repro.fabric.snapshot.CatalogSnapshot` (precomputed cells,
consulted first so snapshotted queries never touch the compute path),
the in-process :class:`~repro.service.cache.TTLCache`, then the on-disk
:class:`~repro.harness.store.ResultStore` -- and a cold request
executes through the harness :class:`SerialExecutor`, once (no
retries).  Concurrent cold requests for the same job
hash are **single-flighted** (:class:`~repro.service.cache.SingleFlight`):
one computes, the rest wait and share the value.  Responses carry a
``meta.cache`` field (``"snapshot"``, ``"memory"``, ``"store"``,
``"miss"``, or ``"coalesced"`` for a request that drafted behind
another's compute) so clients and benchmarks can see which tier
answered.

There is no per-request compute deadline: the harness deadline is
``SIGALRM``-based and cannot be armed off the main thread, where the
threaded HTTP front-end runs every request.  The request-size bounds in
:mod:`repro.service.schemas` are what keep a request's compute small.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from typing import Any, Mapping

from repro import __version__
from repro.harness import Job, ResultStore, SerialExecutor
from repro.obs import trace as obs
from repro.service import serializers
from repro.service.cache import SingleFlight, TTLCache
from repro.service.metrics import ServiceMetrics
from repro.service.schemas import (
    BANDWIDTH_SCHEMA,
    CATALOG_SCHEMA,
    EMULATE_SCHEMA,
    SATURATION_SCHEMA,
    ApiError,
    Schema,
)

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
        self.executor = SerialExecutor(retries=0)
        self.started = time.monotonic()
        self._routes: dict[str, dict[str, tuple[Schema | None, Any]]] = {
            "/healthz": {"GET": (None, self._h_healthz)},
            "/metrics": {"GET": (None, self._h_metrics)},
            "/v1/families": {"GET": (None, self._h_families)},
            "/v1/workloads": {"GET": (None, self._h_workloads)},
            "/v1/bandwidth": {"GET": (BANDWIDTH_SCHEMA, self._h_bandwidth)},
            "/v1/catalog": {"GET": (CATALOG_SCHEMA, self._h_catalog)},
            "/v1/emulate": {"POST": (EMULATE_SCHEMA, self._h_emulate)},
            "/v1/saturation": {"POST": (SATURATION_SCHEMA, self._h_saturation)},
        }
        if os.environ.get("REPRO_SERVICE_DEBUG") == "1":
            # Test-only endpoint: a request whose duration the caller
            # controls makes drain/lifecycle tests deterministic
            # instead of racing real compute times.  Never registered
            # in ENDPOINT_SCHEMAS, never enabled outside the env flag.
            from repro.service.schemas import Field

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
                except ApiError as exc:
                    status, payload = exc.status, exc.body()
                except Exception as exc:  # a handler bug must answer in JSON
                    status, payload = 500, ApiError(
                        500, "internal_error", f"{type(exc).__name__}: {exc}"
                    ).body()
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

    def _run_job(self, fn: str, spec: Mapping[str, Any]) -> tuple[Any, str]:
        """``(value, tier)``; tier is ``snapshot``/``memory``/``store``/
        ``miss``/``coalesced``.

        Tier order: snapshot (mmap, never touches compute), memory LRU,
        then the single-flighted cold path (disk store, else execute).
        A request that arrives while another request is already
        computing the same job hash waits for it instead of recomputing
        and reports the ``coalesced`` tier.
        """
        job = Job(fn, spec)
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
        result = self.executor.run([job])[0]
        if not result.ok:
            raise self._job_error(result.error or "job failed")
        if self.store is not None:
            self.store.put(job, result.value, seconds=result.seconds)
        self.cache.put(job.job_hash, result.value)
        return result.value, "miss"

    @staticmethod
    def _job_error(error: str) -> ApiError:
        if error.startswith("ValueError"):
            # Deterministic spec rejection from domain code (e.g. host
            # larger than guest after size rounding): the client's fault.
            return ApiError(422, "invalid_argument", error)
        return ApiError(500, "job_failed", error)

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

    def _h_bandwidth(self, params: dict) -> tuple[int, dict[str, Any]]:
        t0 = time.perf_counter()
        if params.get("replicates", 1) > 1:
            spec = dict(params)
            spec["base_seed"] = spec.pop("seed")
            value, tier = self._run_job("measure_bandwidth_batch", spec)
        else:
            # Single-seed path: drop the replication-only knob so the
            # job spec (and therefore the cache key) is unchanged from
            # before it existed.
            spec = {k: v for k, v in params.items() if k != "replicates"}
            value, tier = self._run_job("measure_bandwidth", spec)
        return 200, {"result": value, "meta": self._meta(tier, t0)}

    def _h_catalog(self, params: dict) -> tuple[int, dict[str, Any]]:
        t0 = time.perf_counter()
        tiers = {"snapshot": 0, "memory": 0, "store": 0, "miss": 0,
                 "coalesced": 0}
        workload = params.get("workload")
        cells = []
        for guest in params["guests"]:
            for host in params["hosts"]:
                spec = {"guest": guest, "host": host}
                if workload is not None:
                    spec["workload"] = workload
                value, tier = self._run_job("catalog_cell", spec)
                tiers[tier] += 1
                cells.append(value)
        payload = serializers.catalog_payload(
            params["guests"], params["hosts"], cells, workload=workload
        )
        payload["meta"] = {
            "cache": tiers, "seconds": round(time.perf_counter() - t0, 6)
        }
        return 200, payload

    def _h_emulate(self, params: dict) -> tuple[int, dict[str, Any]]:
        if params["host_size"] > params["guest_size"]:
            raise ApiError(
                422,
                "out_of_range",
                "host_size must be <= guest_size: emulation slowdown is "
                "only meaningful for |H| <= |G|",
            )
        t0 = time.perf_counter()
        value, tier = self._run_job("emulate", params)
        return 200, {"result": value, "meta": self._meta(tier, t0)}

    def _h_saturation(self, params: dict) -> tuple[int, dict[str, Any]]:
        t0 = time.perf_counter()
        value, tier = self._run_job("saturation_sweep", params)
        return 200, {"result": value, "meta": self._meta(tier, t0)}

    @staticmethod
    def _meta(tier: str, t0: float) -> dict[str, Any]:
        return {"cache": tier, "seconds": round(time.perf_counter() - t0, 6)}
