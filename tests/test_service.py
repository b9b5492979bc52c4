"""Tests for the JSON query service: a real server on an ephemeral port.

The module-scoped server backs the endpoint/contract tests; failure
modes that need their own lifecycle (graceful shutdown) or no socket at
all (schema validation, TTL cache) get dedicated fixtures or direct
``QueryService.handle`` calls.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.service import (
    ApiError,
    Field,
    QueryService,
    Schema,
    TTLCache,
    create_server,
)
from repro.service.serializers import DEFAULT_CATALOG_KEYS, families_payload


def _request(server, method, path, body=None, raw_body=None):
    host, port = server.server_address[:2]
    conn = http.client.HTTPConnection(host, port, timeout=60)
    try:
        data = raw_body if raw_body is not None else (
            json.dumps(body) if body is not None else None
        )
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode("utf-8"))
    finally:
        conn.close()


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    store = tmp_path_factory.mktemp("service-store")
    srv = create_server(port=0, store=str(store), max_workers=4)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    yield srv
    srv.drain(timeout=10.0)
    thread.join(timeout=10.0)


class TestEndpoints:
    def test_healthz(self, server):
        status, payload = _request(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert "version" in payload and "uptime_seconds" in payload

    def test_families_matches_cli_serializer(self, server):
        status, payload = _request(server, "GET", "/v1/families")
        assert status == 200
        assert payload == families_payload()
        keys = [f["key"] for f in payload["families"]]
        assert "mesh_2" in keys and "de_bruijn" in keys

    def test_bandwidth_cold_then_both_warm_tiers(self, server):
        path = "/v1/bandwidth?family=linear_array&size=64&seed=3"
        status, cold = _request(server, "GET", path)
        assert status == 200
        assert cold["meta"]["cache"] == "miss"
        assert cold["result"]["family"] == "linear_array"
        assert cold["result"]["rate"] > 0

        status, warm = _request(server, "GET", path)
        assert status == 200
        assert warm["meta"]["cache"] == "memory"
        assert warm["result"] == cold["result"]

        # Evict the memory tier: the same query now comes off disk.
        server.service.cache.clear()
        status, stored = _request(server, "GET", path)
        assert status == 200
        assert stored["meta"]["cache"] == "store"
        assert stored["result"] == cold["result"]

    def test_replicated_bandwidth_equals_one_request_per_seed(self, server):
        status, many = _request(
            server, "GET",
            "/v1/bandwidth?family=tree&size=32&seed=5&replicates=3",
        )
        assert status == 200
        singles = []
        for seed in (5, 6, 7):
            status, one = _request(
                server, "GET", f"/v1/bandwidth?family=tree&size=32&seed={seed}"
            )
            assert status == 200
            singles.append(one["result"]["rate"])
        assert many["result"]["rates"] == singles
        # The batching switch is gone: it is an unknown parameter now.
        status, payload = _request(
            server, "GET",
            "/v1/bandwidth?family=tree&size=32&replicates=3&batch=0",
        )
        assert status == 400
        assert payload["error"]["code"] == "unknown_parameter"

    def test_warm_query_much_faster_than_cold(self, server):
        path = "/v1/bandwidth?family=mesh_2&size=256"
        t0 = time.perf_counter()
        status, cold = _request(server, "GET", path)
        cold_seconds = time.perf_counter() - t0
        assert status == 200 and cold["meta"]["cache"] == "miss"

        warm_seconds = min(
            _timed(server, path) for _ in range(5)
        )
        # The acceptance bench (bench_service.py) pins >= 50x; here a
        # conservative 10x keeps the tier-1 gate robust on loaded CI.
        assert warm_seconds < cold_seconds / 10, (cold_seconds, warm_seconds)

    def test_catalog_cells_and_cache_meta(self, server):
        status, payload = _request(
            server, "GET", "/v1/catalog?guests=de_bruijn,mesh_2&hosts=mesh_2,tree"
        )
        assert status == 200
        assert payload["guests"] == ["de_bruijn", "mesh_2"]
        assert len(payload["cells"]) == 4
        cell = payload["cells"][0]
        assert cell["guest"] == "de_bruijn" and cell["host"] == "mesh_2"
        assert set(cell) == {"guest", "host", "expr", "bound", "kind"}
        assert sum(payload["meta"]["cache"].values()) == 4

        status, again = _request(
            server, "GET", "/v1/catalog?guests=de_bruijn,mesh_2&hosts=mesh_2,tree"
        )
        assert again["meta"]["cache"]["memory"] == 4
        assert again["cells"] == payload["cells"]

    def test_catalog_default_grid(self, server):
        status, payload = _request(server, "GET", "/v1/catalog")
        assert status == 200
        assert payload["guests"] == list(DEFAULT_CATALOG_KEYS)
        assert len(payload["cells"]) == len(DEFAULT_CATALOG_KEYS) ** 2

    def test_emulate(self, server):
        status, payload = _request(
            server, "POST", "/v1/emulate",
            body={"guest": "de_bruijn", "host": "mesh_2",
                  "guest_size": 64, "host_size": 16, "steps": 2},
        )
        assert status == 200
        report = payload["result"]
        assert report["slowdown"] >= report["load_bound"]
        assert report["steps"] == 2
        assert isinstance(report["is_efficient"], bool)

    def test_saturation(self, server):
        status, payload = _request(
            server, "POST", "/v1/saturation",
            body={"family": "linear_array", "size": 16,
                  "rates": [0.05, 0.2], "duration": 32},
        )
        assert status == 200
        points = payload["result"]["points"]
        assert len(points) == 2
        assert points[0]["offered_rate"] == 0.05

    def test_metrics_reports_counters_and_percentiles(self, server):
        _request(server, "GET", "/v1/bandwidth?family=linear_array&size=64&seed=3")
        _request(server, "GET", "/v1/bandwidth?family=nosuch")
        status, metrics = _request(server, "GET", "/metrics")
        assert status == 200
        bw = metrics["endpoints"]["GET /v1/bandwidth"]
        assert bw["requests"] >= 2 and bw["errors"] >= 1
        for key in ("count", "mean", "p50", "p95", "p99", "max"):
            assert key in bw["latency_ms"]
        assert metrics["cache"]["memory"]["hits"] >= 1
        assert metrics["cache"]["store"]["puts"] >= 1


def _timed(server, path):
    t0 = time.perf_counter()
    status, payload = _request(server, "GET", path)
    elapsed = time.perf_counter() - t0
    assert status == 200 and payload["meta"]["cache"] == "memory"
    return elapsed


class TestFailureModes:
    def test_unknown_route(self, server):
        status, payload = _request(server, "GET", "/v1/nosuch")
        assert status == 404
        assert payload["error"]["code"] == "route_not_found"

    def test_method_not_allowed(self, server):
        status, payload = _request(server, "POST", "/v1/families", body={})
        assert status == 405
        assert payload["error"]["code"] == "method_not_allowed"

    def test_unknown_family_is_404(self, server):
        status, payload = _request(server, "GET", "/v1/bandwidth?family=nosuch")
        assert status == 404
        assert payload["error"]["code"] == "unknown_family"
        assert "nosuch" in payload["error"]["message"]

    def test_oversized_size_is_422(self, server):
        status, payload = _request(
            server, "GET", "/v1/bandwidth?family=mesh_2&size=99999"
        )
        assert status == 422
        assert payload["error"]["code"] == "out_of_range"

    def test_bad_type_is_400(self, server):
        status, payload = _request(
            server, "GET", "/v1/bandwidth?family=mesh_2&size=abc"
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_parameter"

    def test_unknown_parameter_is_400(self, server):
        status, payload = _request(
            server, "GET", "/v1/bandwidth?family=mesh_2&sizee=64"
        )
        assert status == 400
        assert payload["error"]["code"] == "unknown_parameter"

    def test_missing_required_is_400(self, server):
        status, payload = _request(server, "GET", "/v1/bandwidth")
        assert status == 400
        assert payload["error"]["code"] == "missing_parameter"

    def test_malformed_json_body_is_400(self, server):
        status, payload = _request(
            server, "POST", "/v1/emulate", raw_body="{not json"
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_json"

    def test_non_object_json_body_is_400(self, server):
        status, payload = _request(
            server, "POST", "/v1/emulate", raw_body="[1, 2]"
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid_json"

    def test_host_larger_than_guest_is_422(self, server):
        status, payload = _request(
            server, "POST", "/v1/emulate",
            body={"guest": "mesh_2", "host": "tree",
                  "guest_size": 16, "host_size": 64},
        )
        assert status == 422
        assert payload["error"]["code"] == "out_of_range"

    def test_saturation_rate_out_of_range(self, server):
        status, payload = _request(
            server, "POST", "/v1/saturation",
            body={"family": "linear_array", "size": 16, "rates": [1.5]},
        )
        assert status == 422
        assert payload["error"]["code"] == "out_of_range"


class TestConcurrency:
    def test_concurrent_mixed_endpoints_consistent(self, server):
        """Hammer mixed endpoints from threads: every response is 200
        and identical queries return identical cached values."""
        paths = [
            "/v1/bandwidth?family=linear_array&size=64",
            "/v1/bandwidth?family=tree&size=64",
            "/v1/catalog?guests=tree&hosts=tree",
            "/v1/families",
            "/healthz",
        ]
        results: dict[int, list] = {}
        errors: list[BaseException] = []

        def worker(idx: int) -> None:
            try:
                out = []
                for rep in range(4):
                    path = paths[(idx + rep) % len(paths)]
                    out.append((path, _request(server, "GET", path)))
                results[idx] = out
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not errors, errors
        by_path: dict[str, list] = {}
        for out in results.values():
            for path, (status, payload) in out:
                assert status == 200, (path, payload)
                by_path.setdefault(path, []).append(payload)
        for path, payloads in by_path.items():
            if path.startswith("/v1/bandwidth") or "catalog" in path:
                first = payloads[0]["result" if "bandwidth" in path else "cells"]
                for payload in payloads[1:]:
                    key = "result" if "bandwidth" in path else "cells"
                    assert payload[key] == first, path


class TestGracefulShutdown:
    def test_drain_completes_in_flight_requests(self, tmp_path):
        srv = create_server(port=0, store=str(tmp_path), max_workers=4)
        thread = threading.Thread(target=srv.serve_forever, daemon=True)
        thread.start()
        outcomes: list[tuple[int, dict]] = []

        def slow_query(seed: int) -> None:
            outcomes.append(_request(
                srv, "GET",
                f"/v1/bandwidth?family=mesh_2&size=256&seed={seed}",
            ))

        workers = [
            threading.Thread(target=slow_query, args=(seed,))
            for seed in range(3)
        ]
        for worker in workers:
            worker.start()
        # Wait until every request has actually reached the server (in
        # flight or already answered) before draining: a fixed sleep
        # races on a loaded box and a late arrival would see 503.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if srv.in_flight + len(outcomes) >= 3:
                break
            time.sleep(0.005)
        assert srv.drain(timeout=30.0)
        for worker in workers:
            worker.join(timeout=30)
        thread.join(timeout=10)
        assert len(outcomes) == 3
        assert all(status == 200 for status, _ in outcomes), outcomes

        # Once drained, the listener is gone.
        with pytest.raises(OSError):
            _request(srv, "GET", "/healthz")

    def test_draining_flag_rejects_new_requests(self, tmp_path):
        srv = create_server(port=0, store=str(tmp_path))
        srv._draining = True
        try:
            assert srv.begin_request() is False
        finally:
            srv.server_close()


class TestTTLCache:
    def test_expiry_and_lru_eviction(self):
        now = [0.0]
        cache = TTLCache(maxsize=2, ttl=10.0, clock=lambda: now[0])
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == (True, 1)
        cache.put("c", 3)  # "b" is LRU (the get refreshed "a")
        assert cache.get("b") == (False, None)
        assert cache.get("a") == (True, 1)
        assert cache.stats.evictions == 1

        now[0] = 11.0
        assert cache.get("a") == (False, None)
        assert cache.stats.expirations == 1
        assert len(cache) <= 2

    def test_hit_rate(self):
        cache = TTLCache(maxsize=4, ttl=100.0)
        cache.put("k", "v")
        cache.get("k")
        cache.get("missing")
        assert cache.stats.as_dict()["hit_rate"] == 0.5


class TestSchemas:
    def test_query_coercion(self):
        schema = Schema(
            Field("family", "family", required=True),
            Field("size", "int", default=256, minimum=2, maximum=4096),
        )
        assert schema.validate({"family": "mesh_2", "size": "64"}) == {
            "family": "mesh_2", "size": 64,
        }
        assert schema.validate({"family": "mesh_2"})["size"] == 256

    def test_error_statuses(self):
        schema = Schema(
            Field("family", "family", required=True),
            Field("size", "int", default=256, minimum=2, maximum=4096),
            Field("engine", "str", default="fast", choices=("fast",)),
            Field("rates", "float_list", minimum=0.0, maximum=1.0, max_items=2),
        )
        cases = [
            ({}, 400, "missing_parameter"),
            ({"family": "nosuch"}, 404, "unknown_family"),
            ({"family": "mesh_2", "size": "1e9"}, 400, "invalid_parameter"),
            ({"family": "mesh_2", "size": 5000}, 422, "out_of_range"),
            ({"family": "mesh_2", "engine": "warp"}, 400, "invalid_parameter"),
            ({"family": "mesh_2", "bogus": 1}, 400, "unknown_parameter"),
            ({"family": "mesh_2", "rates": [0.1, 0.2, 0.3]}, 422, "out_of_range"),
            ({"family": "mesh_2", "rates": ""}, 400, "invalid_parameter"),
        ]
        for params, status, code in cases:
            with pytest.raises(ApiError) as excinfo:
                schema.validate(params)
            assert excinfo.value.status == status, params
            assert excinfo.value.code == code, params

    def test_optional_without_default_is_omitted(self):
        schema = Schema(Field("rates", "float_list", minimum=0.0, maximum=1.0))
        assert schema.validate({}) == {}
        assert schema.validate({"rates": "0.1,0.5"}) == {"rates": [0.1, 0.5]}

    def test_bool_is_not_an_int(self):
        schema = Schema(Field("size", "int", minimum=0, maximum=10))
        with pytest.raises(ApiError) as excinfo:
            schema.validate({"size": True})
        assert excinfo.value.status == 400


class TestSnapshotTier:
    """The memory-mapped snapshot as the service's front cache tier."""

    @pytest.fixture()
    def snapshot_path(self, tmp_path):
        from repro.fabric import build_snapshot
        from repro.harness import Job, run_sweep

        jobs = [
            Job("measure_bandwidth",
                {"family": "ring", "size": 32, "seed": 0, "engine": "fast"}),
            Job("catalog_cell", {"guest": "ring", "host": "ring"}),
        ]
        sweep = run_sweep(jobs)
        assert sweep.ok
        path = tmp_path / "cells.snap"
        build_snapshot(sweep.results, path)
        return path

    def test_snapshotted_cell_served_from_snapshot_tier(self, snapshot_path):
        from repro.fabric import CatalogSnapshot

        service = QueryService(snapshot=CatalogSnapshot(snapshot_path))
        status, payload = service.handle(
            "GET", "/v1/bandwidth",
            {"family": "ring", "size": "32", "seed": "0", "engine": "fast"},
        )
        assert status == 200
        assert payload["meta"]["cache"] == "snapshot"
        # Tier order: the snapshot wins even on repeat queries (the
        # memory LRU never even sees the key).
        status, payload = service.handle(
            "GET", "/v1/bandwidth",
            {"family": "ring", "size": "32", "seed": "0", "engine": "fast"},
        )
        assert payload["meta"]["cache"] == "snapshot"

    def test_snapshot_value_identical_to_cold_compute(self, snapshot_path):
        from repro.fabric import CatalogSnapshot

        query = {"family": "ring", "size": "32", "seed": "0", "engine": "fast"}
        snapped = QueryService(snapshot=CatalogSnapshot(snapshot_path))
        cold = QueryService()
        _, a = snapped.handle("GET", "/v1/bandwidth", query)
        _, b = cold.handle("GET", "/v1/bandwidth", query)
        assert a["meta"]["cache"] == "snapshot"
        assert b["meta"]["cache"] == "miss"
        assert a["result"] == b["result"]

    def test_catalog_counts_snapshot_tier(self, snapshot_path):
        from repro.fabric import CatalogSnapshot

        service = QueryService(snapshot=CatalogSnapshot(snapshot_path))
        status, payload = service.handle(
            "GET", "/v1/catalog", {"guests": "ring", "hosts": "ring"}
        )
        assert status == 200
        assert payload["meta"]["cache"]["snapshot"] == 1
        assert sum(payload["meta"]["cache"].values()) == 1

    def test_metrics_exposes_snapshot_stats(self, snapshot_path):
        from repro.fabric import CatalogSnapshot

        service = QueryService(snapshot=CatalogSnapshot(snapshot_path))
        service.handle(
            "GET", "/v1/bandwidth",
            {"family": "ring", "size": "32", "seed": "0", "engine": "fast"},
        )
        _, metrics = service.handle("GET", "/metrics")
        snap_stats = metrics["cache"]["snapshot"]
        assert snap_stats["records"] == 2
        assert snap_stats["hits"] == 1

    def test_default_snapshot_build_serves_default_queries(self, tmp_path):
        """``repro snapshot build`` and ``/v1/bandwidth`` apply the same
        default engine, so a default query hits a default-built cell;
        if the two defaults drifted apart every lookup would miss."""
        from repro.cli import main
        from repro.fabric import CatalogSnapshot

        path = tmp_path / "default.snap"
        assert main([
            "snapshot", "build", "--out", str(path), "--families", "ring",
            "--sizes", "16", "--seeds", "1", "--workers", "1", "--quiet",
        ]) == 0
        service = QueryService(snapshot=CatalogSnapshot(path))
        status, payload = service.handle(
            "GET", "/v1/bandwidth", {"family": "ring", "size": "16"}
        )
        assert status == 200
        assert payload["meta"]["cache"] == "snapshot"

    def test_unsnapshotted_cell_falls_through(self, snapshot_path):
        from repro.fabric import CatalogSnapshot

        service = QueryService(snapshot=CatalogSnapshot(snapshot_path))
        status, payload = service.handle(
            "GET", "/v1/bandwidth",
            {"family": "ring", "size": "64", "seed": "0", "engine": "fast"},
        )
        assert status == 200
        assert payload["meta"]["cache"] == "miss"


class TestCoalescing:
    """Single-flight: concurrent identical cold requests compute once."""

    def test_concurrent_cold_requests_coalesce(self):
        service = QueryService()
        release = threading.Event()
        leader_started = threading.Event()
        cold = service._run_job_cold

        def slow_cold(job):
            leader_started.set()
            assert release.wait(timeout=30), "test never released the leader"
            return cold(job)

        service._run_job_cold = slow_cold
        query = {"family": "ring", "size": "16", "seed": "0", "engine": "fast"}
        outcomes = []

        def hit():
            outcomes.append(service.handle("GET", "/v1/bandwidth", query))

        leader = threading.Thread(target=hit)
        leader.start()
        assert leader_started.wait(timeout=30)
        follower = threading.Thread(target=hit)
        follower.start()
        # The follower has joined the flight once the coalesced counter
        # ticks; only then is it safe to let the leader finish.
        deadline = time.monotonic() + 30
        while service.flight.coalesced < 1:
            assert time.monotonic() < deadline, "follower never coalesced"
            time.sleep(0.005)
        release.set()
        leader.join(timeout=30)
        follower.join(timeout=30)
        assert len(outcomes) == 2
        tiers = sorted(payload["meta"]["cache"] for _, payload in outcomes)
        assert tiers == ["coalesced", "miss"]
        values = [payload["result"] for _, payload in outcomes]
        assert values[0] == values[1]

    def test_metrics_reports_coalesced_counter(self):
        service = QueryService()
        _, metrics = service.handle("GET", "/metrics")
        assert metrics["cache"]["coalesced"] == 0
        assert metrics["cache"]["flight"] == {"leaders": 0, "coalesced": 0}
        service.flight.coalesced = 3  # as if three requests drafted
        _, metrics = service.handle("GET", "/metrics")
        assert metrics["cache"]["coalesced"] == 3

    def test_single_flight_exception_propagates_to_followers(self):
        from repro.service.cache import SingleFlight

        flight = SingleFlight()
        gate = threading.Event()
        errors = []

        def boom():
            gate.wait(5)
            raise RuntimeError("cold path exploded")

        def leader():
            try:
                flight.run("k", boom)
            except RuntimeError as exc:
                errors.append(("leader", str(exc)))

        def follower():
            try:
                flight.run("k", lambda: "never called")
            except RuntimeError as exc:
                errors.append(("follower", str(exc)))

        t1 = threading.Thread(target=leader)
        t1.start()
        deadline = time.monotonic() + 5
        while flight.in_flight() < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        t2 = threading.Thread(target=follower)
        t2.start()
        deadline = time.monotonic() + 5
        while flight.coalesced < 1 and time.monotonic() < deadline:
            time.sleep(0.005)
        gate.set()
        t1.join(timeout=10)
        t2.join(timeout=10)
        assert sorted(e[0] for e in errors) == ["follower", "leader"]
        assert all("exploded" in e[1] for e in errors)

    def test_distinct_keys_do_not_coalesce(self):
        from repro.service.cache import SingleFlight

        flight = SingleFlight()
        assert flight.run("a", lambda: 1) == (1, True)
        assert flight.run("b", lambda: 2) == (2, True)
        assert flight.stats() == {"leaders": 2, "coalesced": 0}
