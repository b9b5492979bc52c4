"""HTTP front-end: stdlib ``ThreadingHTTPServer`` around :class:`QueryService`.

Design notes:

* **Threaded, bounded.**  ``ThreadingHTTPServer`` gives one thread per
  connection; a ``BoundedSemaphore`` of ``max_workers`` slots caps how
  many requests are *processed* concurrently, so a burst of connections
  queues instead of oversubscribing the CPU (the compute behind a cold
  query is CPU-bound NumPy).
* **Graceful shutdown.**  ``SIGTERM``/``SIGINT`` trigger
  :meth:`ServiceServer.drain`: the listener stops, requests already in
  flight run to completion (bounded by ``drain`` timeout), and any
  request arriving on an open keep-alive connection during the drain is
  answered ``503 {"error": {"code": "draining", ...}}`` rather than
  dropped mid-socket.
* **JSON everywhere.**  Every response -- including errors the
  dispatcher raises -- is ``application/json`` with an explicit
  ``Content-Length``, so clients can keep connections alive.

Use :func:`create_server` (ephemeral port with ``port=0``) from tests
and benchmarks, :func:`serve` from the CLI (``python -m repro serve``).
"""

from __future__ import annotations

import contextlib
import json
import signal
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from urllib.parse import parse_qs, urlsplit

from repro import __version__
from repro.harness import ResultStore
from repro.harness.jobs import BUILTIN_JOBS, preload_jobs
from repro.obs import trace as obs
from repro.service.app import QueryService
from repro.util.validation import UnavailableError

__all__ = ["ServiceHandler", "ServiceServer", "create_server", "serve"]


class ServiceHandler(BaseHTTPRequestHandler):
    """Parses HTTP, delegates to ``server.service.handle``, writes JSON."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-service/{__version__}"
    # Headers and body go out in separate writes; without TCP_NODELAY,
    # Nagle + the client's delayed ACK stall every keep-alive response
    # by ~40 ms, which would dominate warm-cache latency.
    disable_nagle_algorithm = True

    def do_GET(self) -> None:
        """Dispatch a GET request."""
        self._handle("GET")

    def do_POST(self) -> None:
        """Dispatch a POST request."""
        self._handle("POST")

    def _handle(self, method: str) -> None:
        server: ServiceServer = self.server  # type: ignore[assignment]
        with server.worker_slots:
            if not server.begin_request():
                self._write(
                    503,
                    {"error": {"code": "draining",
                               "message": "server is shutting down"}},
                )
                self.close_connection = True
                return
            try:
                parts = urlsplit(self.path)
                query = {
                    key: values[-1]
                    for key, values in parse_qs(
                        parts.query, keep_blank_values=True
                    ).items()
                }
                length = int(self.headers.get("Content-Length") or 0)
                body = self.rfile.read(length) if length > 0 else b""
                status, payload = server.service.handle(
                    method, parts.path, query, body
                )
                self._write(status, payload)
            finally:
                server.end_request()

    def _write(self, status: int, payload: dict) -> None:
        data = (json.dumps(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


class ServiceServer(ThreadingHTTPServer):
    """Threaded HTTP server with a worker cap and drain-aware shutdown."""

    # Keep-alive connections may sit idle indefinitely; daemon threads
    # let the process exit once the drain has finished.  In-flight
    # *requests* are tracked explicitly instead of via thread joins.
    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self,
        address: tuple[str, int],
        service: QueryService,
        max_workers: int = 8,
        verbose: bool = False,
        sock: socket.socket | None = None,
    ) -> None:
        if sock is not None:
            # Adopt an already-bound, already-listening socket (the
            # pre-fork tier shares the port across worker processes,
            # via SO_REUSEPORT siblings or one inherited descriptor).
            super().__init__(address, ServiceHandler, bind_and_activate=False)
            self.socket.close()  # the unbound default TCPServer made
            self.socket = sock
            self.server_address = sock.getsockname()
            host, port = self.server_address[:2]
            self.server_name = socket.getfqdn(host)
            self.server_port = port
        else:
            super().__init__(address, ServiceHandler)
        self.service = service
        self.verbose = verbose
        self.worker_slots = threading.BoundedSemaphore(max(1, int(max_workers)))
        self._state_lock = threading.Lock()
        self._in_flight = 0
        self._draining = False

    # -- in-flight accounting (called from handler threads) -----------------

    def begin_request(self) -> bool:
        """Claim an in-flight slot; ``False`` once draining started."""
        with self._state_lock:
            if self._draining:
                return False
            self._in_flight += 1
            return True

    def end_request(self) -> None:
        """Release the in-flight slot claimed by :meth:`begin_request`."""
        with self._state_lock:
            self._in_flight -= 1

    @property
    def in_flight(self) -> int:
        with self._state_lock:
            return self._in_flight

    # -- shutdown ------------------------------------------------------------

    def drain(self, timeout: float = 10.0) -> bool:
        """Graceful shutdown: stop accepting, let in-flight finish, close.

        Returns ``True`` if every in-flight request completed within
        ``timeout`` seconds (the close happens regardless).
        """
        with self._state_lock:
            self._draining = True
        self.shutdown()  # stops serve_forever; no new connections accepted
        deadline = time.monotonic() + timeout
        drained = False
        while time.monotonic() < deadline:
            if self.in_flight == 0:
                drained = True
                break
            time.sleep(0.01)
        self.server_close()
        return drained


def create_server(
    host: str = "127.0.0.1",
    port: int = 0,
    store: ResultStore | str | Path | None = None,
    cache_size: int = 1024,
    ttl: float = 300.0,
    max_workers: int = 8,
    verbose: bool = False,
    snapshot: str | Path | None = None,
    sock: socket.socket | None = None,
    prefork=None,
) -> ServiceServer:
    """Build a ready-to-``serve_forever`` server (``port=0`` = ephemeral).

    ``snapshot`` mounts a precomputed :mod:`repro.fabric` catalog
    snapshot as the front cache tier; a missing, corrupt, or
    wrong-code-version file raises
    :class:`~repro.fabric.snapshot.SnapshotError` here, at boot, rather
    than failing requests later.

    ``sock`` adopts an already-listening socket instead of binding
    ``host:port``, and ``prefork`` injects a
    :class:`~repro.service.prefork.WorkerState` so ``GET /metrics``
    reports merged cross-worker totals -- both are how the pre-fork
    tier (``serve --workers N``) assembles its workers.
    """
    if isinstance(store, (str, Path)):
        store = ResultStore(store)
    opened_snapshot = None
    if snapshot is not None:
        from repro.fabric.snapshot import CatalogSnapshot
        from repro.harness.store import default_salt

        if isinstance(snapshot, (str, Path)):
            opened_snapshot = CatalogSnapshot(
                snapshot, expected_salt=default_salt()
            )
        else:
            opened_snapshot = snapshot
    service = QueryService(
        store=store,
        cache_size=cache_size,
        ttl=ttl,
        snapshot=opened_snapshot,
        prefork=prefork,
    )
    try:
        return ServiceServer((host, port), service, max_workers=max_workers,
                             verbose=verbose, sock=sock)
    except OSError as exc:
        raise listen_error(host, port, exc) from exc


def listen_error(host: str, port: int, exc: OSError) -> UnavailableError:
    """What both tiers raise when ``host:port`` cannot be bound."""
    return UnavailableError(f"cannot listen on {host}:{port}: {exc.strerror or exc}")


def serve(
    host: str = "127.0.0.1",
    port: int = 8080,
    store: str | None = None,
    cache_size: int = 1024,
    ttl: float = 300.0,
    max_workers: int = 8,
    verbose: bool = False,
    drain_timeout: float = 10.0,
    trace: str | None = None,
    snapshot: str | None = None,
) -> int:
    """Run the service until SIGTERM/SIGINT, then drain; returns exit code.

    ``trace`` enables process-wide span tracing into a size-rotated
    JSON-lines file: one ``service.request`` span per request (trace id
    echoed in ``meta.trace_id``), live span stats on ``GET /metrics``,
    and ``python -m repro trace report <file>`` afterwards.
    """
    if trace:
        obs.configure(trace)
    preload_jobs(BUILTIN_JOBS)
    server = create_server(
        host=host,
        port=port,
        store=store,
        cache_size=cache_size,
        ttl=ttl,
        max_workers=max_workers,
        verbose=verbose,
        snapshot=snapshot,
    )
    stop = threading.Event()

    def _signalled(signum, frame) -> None:
        stop.set()

    previous = {
        sig: signal.signal(sig, _signalled)
        for sig in (signal.SIGTERM, signal.SIGINT)
    }
    bound_host, bound_port = server.server_address[:2]
    store_note = f", store={store}" if store else ", no store (memory tier only)"
    if snapshot:
        cells = len(server.service.snapshot)
        store_note = f", snapshot={snapshot} ({cells} cells)" + store_note
    trace_note = f", trace={trace}" if trace else ""
    print(
        f"repro-service {__version__} listening on "
        f"http://{bound_host}:{bound_port} "
        f"(workers={max_workers}, ttl={ttl:g}s{store_note}{trace_note})",
        flush=True,
    )
    runner = threading.Thread(target=server.serve_forever, daemon=True)
    runner.start()
    try:
        stop.wait()
    finally:
        print("draining in-flight requests ...", flush=True)
        drained = server.drain(timeout=drain_timeout)
        runner.join(timeout=drain_timeout)
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        if trace:
            obs.disable()  # flush counters + close the trace file
        print("bye" if drained else "drain timed out; closed anyway",
              flush=True)
    return 0 if drained else 1
