"""The bench HTTP client against a local stub server that can stall."""

import random
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from loadclient import closed_loop, open_loop, poisson_schedule, request

STALL = 0.3


class _Stub(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_GET(self):
        if self.path == "/stall":
            time.sleep(STALL)
        body = self.path.encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
        assert not thread.is_alive()


def test_open_loop_times_from_the_scheduled_send(stub):
    """Requests queued behind a stall count the stall in their latency,
    though each one's own service time stays short."""
    schedule = [(0.0, "/stall")] + [(0.05 * k, f"/fast{k}") for k in range(1, 5)]
    replies = open_loop("127.0.0.1", stub, schedule, connections=1)
    assert [r.status for r in replies] == [200] * 5
    assert [r.body for r in replies] == [p.encode() for _, p in schedule]
    assert replies[0].latency >= STALL
    for k, r in enumerate(replies[1:], start=1):
        assert r.latency >= STALL - 0.05 * k - 0.01
        assert r.lag >= STALL - 0.05 * k - 0.01
        assert r.done - r.sent < STALL / 2
    # A second connection sidesteps the stall: nothing waits behind it.
    replies = open_loop("127.0.0.1", stub, schedule, connections=2)
    assert max(r.latency for r in replies[1:]) < STALL / 2


def test_open_loop_waits_for_early_requests(stub):
    replies = open_loop("127.0.0.1", stub, [(0.0, "/a"), (0.2, "/b")], connections=1)
    assert replies[1].sent - replies[0].scheduled >= 0.2
    assert abs(replies[1].lag) < 0.05


def test_closed_loop_keeps_order_per_connection(stub):
    paths = [["/a", "/b", "/c"], ["/d"]]
    out = closed_loop("127.0.0.1", stub, paths)
    assert [[r.body.decode() for r in conn] for conn in out] == paths
    for conn in out:
        for r in conn:
            assert r.status == 200 and r.scheduled == r.sent and r.latency >= 0


def test_transport_error_is_status_zero():
    # Nothing listens on a port we just released.
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Stub)
    port = server.server_address[1]
    server.server_close()
    reply = request("127.0.0.1", port, "/x", timeout=2.0)
    assert reply.status == 0 and reply.body == b""


def test_poisson_schedule_is_seeded_and_near_its_rate():
    pick = lambda r: "/p"  # noqa: E731
    a = poisson_schedule(500.0, 4.0, random.Random(7), pick)
    b = poisson_schedule(500.0, 4.0, random.Random(7), pick)
    assert a == b
    assert all(0 <= t < 4.0 for t, _ in a)
    assert [t for t, _ in a] == sorted(t for t, _ in a)
    assert 1800 < len(a) < 2200
