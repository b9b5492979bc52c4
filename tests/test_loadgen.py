"""Tests for the load-generation subsystem (:mod:`repro.loadgen`).

The centerpiece is the coordinated-omission test: an open-loop driver
pointed at an artificially stalled single-threaded server must report
latencies measured from the *scheduled* send time -- growing with the
backlog -- while the per-request service time stays flat at the stall.
A driver that timestamped at actual send would report the flat number
and hide the queueing entirely; asserting the two distributions
diverge is the proof the driver does not coordinate with the server.
"""

from __future__ import annotations

import json
import random
import socket
import tempfile
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.cli import main
from repro.loadgen import (
    LatencyReservoir,
    percentile,
    resolve_mix,
    run_closed_loop,
    run_open_loop,
    summarize_ms,
)
from repro.loadgen.mix import RequestMix, RequestSpec
from repro.service import create_server
from repro.service.metrics import ServiceMetrics


class TestLatencyReservoir:
    def test_exact_until_capacity(self):
        res = LatencyReservoir(capacity=100)
        for v in [0.010, 0.020, 0.030, 0.040]:
            res.observe(v)
        summary = res.summary_ms()
        assert summary["count"] == 4
        assert summary["p50"] == 20.0
        assert summary["max"] == 40.0
        assert summary["mean"] == 25.0

    def test_memory_bounded_counters_exact(self):
        res = LatencyReservoir(capacity=64, rng=random.Random(0))
        for i in range(10_000):
            res.observe(i / 1000.0)
        assert len(res) == 64
        assert res.count == 10_000
        assert res.max == pytest.approx(9.999)
        summary = res.summary_ms()
        assert summary["count"] == 10_000
        assert summary["max"] == pytest.approx(9999.0)

    def test_sample_spans_whole_stream_not_a_window(self):
        # A sliding window would only hold the last 64 of 10k values;
        # the uniform reservoir must retain early observations too.
        res = LatencyReservoir(capacity=64, rng=random.Random(7))
        for i in range(10_000):
            res.observe(float(i))
        values = res.values()
        assert min(values) < 2_500.0
        assert max(values) > 7_500.0

    def test_thread_safe_counts(self):
        res = LatencyReservoir(capacity=32)

        def spin():
            for _ in range(2_000):
                res.observe(0.001)

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert res.count == 8_000

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LatencyReservoir(capacity=0)

    def test_percentile_and_summary_helpers(self):
        assert percentile([], 50) == 0.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.0
        summary = summarize_ms([0.001, 0.002])
        assert summary == {
            "count": 2, "mean": 1.5, "p50": 1.0, "p95": 2.0,
            "p99": 2.0, "max": 2.0,
        }


class TestServiceMetricsReservoir:
    """The /metrics percentiles ride the same bounded reservoir."""

    def test_window_bounds_memory_counters_stay_exact(self):
        metrics = ServiceMetrics(window=32)
        for i in range(5_000):
            metrics.observe("GET /x", 200, 0.001 * (i % 10 + 1))
        snap = metrics.snapshot()["GET /x"]
        assert snap["requests"] == 5_000
        assert snap["latency_ms"]["count"] == 5_000  # exact stream count
        assert snap["latency_ms"]["max"] == pytest.approx(10.0)
        # the sample backing the percentiles is bounded at the window
        assert len(metrics._endpoints["GET /x"].reservoir) == 32

    def test_counters_export_is_mergeable(self):
        metrics = ServiceMetrics()
        metrics.observe("GET /x", 200, 0.5)
        metrics.observe("GET /x", 500, 0.25)
        counters = metrics.counters()
        assert counters == {
            "GET /x": {"requests": 2, "errors": 1, "total_seconds": 0.75}
        }


class TestRequestMix:
    def test_registry_and_unknown_names(self):
        mix = resolve_mix("warm_bandwidth")
        assert mix.name == "warm_bandwidth"
        with pytest.raises(KeyError, match="unknown request mix"):
            resolve_mix("nosuch")
        with pytest.raises(KeyError, match="does not accept"):
            resolve_mix("health", cold_fraction=0.5)

    def test_sampling_is_deterministic(self):
        mix = resolve_mix("mixed", cold_fraction=0.3)
        a = [mix.sample(random.Random(5)) for _ in range(20)]
        b = [mix.sample(random.Random(5)) for _ in range(20)]
        assert a == b

    def test_cold_fraction_one_always_varies_seed(self):
        mix = resolve_mix("mixed", cold_fraction=1.0)
        rng = random.Random(1)
        paths = {mix.sample(rng)[1] for _ in range(50)}
        assert len(paths) == 50
        assert all("seed=" in p for p in paths)

    def test_warm_mix_never_varies(self):
        mix = resolve_mix("warm_bandwidth")
        rng = random.Random(1)
        paths = {mix.sample(rng)[1] for _ in range(100)}
        assert paths == {p for _, p, _ in mix.prime_paths()}

    def test_validation(self):
        with pytest.raises(ValueError, match="cold_fraction"):
            RequestMix("bad", (RequestSpec("h", "GET", "/healthz"),),
                       cold_fraction=1.5)
        with pytest.raises(ValueError, match="at least one"):
            RequestMix("empty", ())


@pytest.fixture(scope="module")
def live_server():
    server = create_server(
        port=0, store=tempfile.mkdtemp(prefix="repro-loadgen-"),
        max_workers=4,
    )
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server.server_address[:2]
    server.drain(timeout=10.0)
    thread.join(timeout=10.0)


class TestClosedLoop:
    def test_drives_real_service(self, live_server):
        host, port = live_server
        result = run_closed_loop(
            host, port, resolve_mix("warm_bandwidth"),
            connections=2, duration=0.5,
        )
        assert result.mode == "closed"
        assert result.requests > 0
        assert result.errors == 0
        assert result.achieved_rps > 0
        assert result.latency_ms["count"] == result.requests
        assert result.status_counts == {"200": result.requests}
        record = result.as_dict()
        json.dumps(record)  # JSON-ready
        assert "offered_rps" not in record

    def test_connection_validation(self, live_server):
        host, port = live_server
        with pytest.raises(ValueError):
            run_closed_loop(host, port, resolve_mix("health"), connections=0)


def _closed_port() -> int:
    """A local port nothing listens on (bound once, then released)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestUnansweredRequests:
    """Against a port nothing listens on, every attempt is an error,
    and none of them counts as throughput or latency."""

    def test_closed_loop(self):
        result = run_closed_loop(
            "127.0.0.1", _closed_port(), resolve_mix("health"),
            connections=1, duration=0.2,
        )
        assert result.requests > 0
        assert result.errors == result.requests
        assert result.answered == 0
        assert result.achieved_rps == 0.0
        assert result.latency_ms["count"] == 0

    def test_open_loop(self):
        result = run_open_loop(
            "127.0.0.1", _closed_port(), resolve_mix("health"),
            rate=200.0, duration=0.2, connections=2,
        )
        assert result.requests > 0
        assert result.errors == result.requests
        assert result.answered == 0
        assert result.achieved_rps == 0.0
        for summary in (result.latency_ms, result.service_ms, result.send_lag_ms):
            assert summary["count"] == 0

    def test_cli_exits_with_one_error_line(self):
        port = _closed_port()
        with pytest.raises(SystemExit) as excinfo:
            main(["loadtest", "--port", str(port), "--duration", "0.2"])
        message = str(excinfo.value)
        assert message.startswith(f"error: no request to 127.0.0.1:{port} was answered")
        assert "\n" not in message


class _StallingHandler(BaseHTTPRequestHandler):
    """Answers every GET after a fixed stall; single-threaded server
    semantics make the backlog deterministic."""

    protocol_version = "HTTP/1.1"

    def do_GET(self):
        time.sleep(self.server.stall_seconds)
        body = b'{"ok": true}\n'
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stalled_server():
    server = HTTPServer(("127.0.0.1", 0), _StallingHandler)
    server.stall_seconds = 0.08
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)


class TestOpenLoop:
    def test_tracks_offered_rate_when_underloaded(self, live_server):
        host, port = live_server
        result = run_open_loop(
            host, port, resolve_mix("warm_bandwidth"),
            rate=100.0, duration=1.0, connections=8,
        )
        assert result.mode == "open"
        assert result.offered_rps == 100.0
        assert result.errors == 0
        assert result.unsent == 0
        # Underloaded: achieved tracks offered (Poisson draw, not exact)
        assert result.achieved_rps == pytest.approx(100.0, rel=0.5)
        assert result.send_lag_ms is not None

    def test_request_sequence_is_deterministic(self, live_server):
        host, port = live_server
        kwargs = dict(rate=80.0, duration=0.5, connections=4, seed=3)
        a = run_open_loop(host, port, resolve_mix("warm_bandwidth"), **kwargs)
        b = run_open_loop(host, port, resolve_mix("warm_bandwidth"), **kwargs)
        assert a.requests == b.requests  # same arrival draw, same mix

    def test_no_coordinated_omission_against_stalled_server(
        self, stalled_server
    ):
        """THE acceptance property: latency runs from scheduled send.

        One connection against a server that stalls 80 ms per request,
        offered 50/s: capacity is 12.5/s, so the backlog grows by
        ~60 ms per arrival.  Measured from scheduled time the tail
        must reach many multiples of the stall; measured from actual
        send (the coordinated-omission-blind number, reported as
        ``service_ms``) every request is just ~one stall.  A driver
        that omitted the queueing would report the flat number in both
        columns.
        """
        stall_ms = stalled_server.stall_seconds * 1000.0
        host, port = stalled_server.server_address[:2]
        result = run_open_loop(
            host, port, resolve_mix("health"),
            rate=50.0, duration=0.5, connections=1,
            seed=1, prime=False,
        )
        assert result.requests > 10
        assert result.errors == 0
        assert result.unsent == 0
        # honest queueing delay: the tail is the whole backlog ...
        assert result.latency_ms["max"] >= 4 * stall_ms
        assert result.latency_ms["p95"] >= 3 * stall_ms
        # ... while blind per-request service time stays ~one stall
        assert result.service_ms["p95"] <= 2.5 * stall_ms
        # and the divergence itself is the no-omission proof
        assert result.latency_ms["p95"] > 2 * result.service_ms["p95"]
        # the send-side backlog is visible, not silently swallowed
        assert result.send_lag_ms["max"] >= 2 * stall_ms

    def test_overrun_budget_counts_unsent(self, stalled_server):
        """Arrivals past the overrun cutoff are abandoned but counted."""
        host, port = stalled_server.server_address[:2]
        result = run_open_loop(
            host, port, resolve_mix("health"),
            rate=100.0, duration=0.5, connections=1,
            seed=2, prime=False, max_overrun=0.0,
        )
        assert result.unsent > 0
        assert result.requests + result.unsent > 30  # ~50 scheduled

    def test_rate_validation(self, live_server):
        host, port = live_server
        with pytest.raises(ValueError):
            run_open_loop(host, port, resolve_mix("health"), rate=0.0)
