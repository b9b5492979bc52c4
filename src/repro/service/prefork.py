"""Pre-fork multi-process service tier: N workers, one port.

``python -m repro serve --workers N`` (N > 1) escapes the single
process's GIL ceiling: a **master** process reserves the listening
port once, forks ``N`` worker processes that each run the full
threaded :class:`~repro.service.server.ServiceServer` over the *shared*
on-disk :class:`~repro.harness.store.ResultStore` (and optional
catalog snapshot), and then does nothing but supervise.  Compute
scales with processes because each worker is its own interpreter;
results stay consistent across workers because every cache tier below
process memory is keyed by job content hash.

Socket sharing strategies (:func:`choose_strategy`, forcible via the
``REPRO_PREFORK`` environment variable):

* ``"reuseport"`` (preferred) -- every worker binds its own socket to
  the port with ``SO_REUSEPORT``; the kernel load-balances incoming
  connections across workers.  The master holds a bound-but-not-
  listening placeholder socket, so the port stays reserved even in the
  gap between a worker dying and its respawn ("no dropped listener").
* ``"inherited"`` (fallback) -- the master binds + listens once and
  workers accept on the inherited file descriptor.  Works anywhere
  ``os.fork`` does.

Platforms with neither (no ``fork``) raise
:class:`PreforkUnavailableError`, which the CLI renders as one clean
``error:`` line.

Supervision: a worker that dies unexpectedly (e.g. SIGKILL) is
respawned, up to ``respawn_limit`` times over the master's lifetime --
bounded so a crash-looping config degrades into a clean exit rather
than a fork bomb.  ``SIGTERM``/``SIGINT`` to the master propagates
``SIGTERM`` to every worker; each worker runs its normal drain
(in-flight requests finish, keep-alive stragglers get ``503
draining``), and the master exits 0 only if every worker drained
cleanly.  Workers also watch for the master vanishing (reparenting)
and drain themselves, so a killed master never strands listeners.

Metrics: single-process percentiles live in worker memory, so each
worker periodically publishes its exact counters to
``<metrics-dir>/worker-<pid>.json`` (atomic rename).  ``GET /metrics``
on *any* worker then reports its own full snapshot **plus** a
``prefork`` section with the merged per-endpoint/cache totals across
every worker file ever written (dead workers' counts persist -- the
merge is over the cluster's lifetime).  Percentiles are not merged:
they cannot be summed; only counts and total seconds are.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Any

from repro import __version__
from repro.harness.jobs import BUILTIN_JOBS, preload_jobs
from repro.service.server import listen_error
from repro.util.validation import UnavailableError

__all__ = [
    "MetricsDir",
    "PreforkUnavailableError",
    "WorkerState",
    "choose_strategy",
    "serve_prefork",
]

#: How often each worker republishes its counters file (seconds).
PUBLISH_INTERVAL = 0.25

#: Default ceiling on unexpected-worker-death respawns per master.
DEFAULT_RESPAWN_LIMIT = 16


class PreforkUnavailableError(UnavailableError):
    """This platform cannot run the pre-fork tier (use ``--workers 1``)."""


def _reuseport_works() -> bool:
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    try:
        probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        finally:
            probe.close()
        return True
    except OSError:
        return False


def choose_strategy(force: str | None = None) -> str:
    """Pick ``"reuseport"`` or ``"inherited"``, or raise.

    ``force`` (or the ``REPRO_PREFORK`` environment variable) pins a
    strategy; forcing ``reuseport`` where the platform lacks it raises
    instead of silently falling back, so tests and deployments that
    depend on kernel load-balancing find out at boot.
    """
    force = force or os.environ.get("REPRO_PREFORK") or None
    if force not in (None, "reuseport", "inherited"):
        raise PreforkUnavailableError(
            f"unknown prefork strategy {force!r} "
            "(REPRO_PREFORK accepts 'reuseport' or 'inherited')"
        )
    if not hasattr(os, "fork"):
        raise PreforkUnavailableError(
            "prefork needs os.fork(), which this platform does not "
            "provide; run with --workers 1"
        )
    if force == "inherited":
        return "inherited"
    if _reuseport_works():
        return "reuseport"
    if force == "reuseport":
        raise PreforkUnavailableError(
            "SO_REUSEPORT is unavailable on this platform and the "
            "inherited-FD fallback was disabled (REPRO_PREFORK=reuseport); "
            "run with --workers 1"
        )
    return "inherited"


class MetricsDir:
    """Per-worker counter files + the cross-worker merge.

    One JSON file per worker pid, written via temp-file + atomic
    rename so a reader never sees a torn write; ``merged()`` sums the
    exact counters across every file.  The master keeps its own
    ``master.json`` (pids, respawns, strategy) for observability.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _write(self, name: str, payload: dict[str, Any]) -> None:
        tmp = self.root / f".{name}.tmp.{os.getpid()}"
        tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
        os.replace(tmp, self.root / name)

    def publish_worker(self, pid: int, payload: dict[str, Any]) -> None:
        """Atomically replace ``worker-<pid>.json`` with ``payload``."""
        self._write(f"worker-{pid}.json", payload)

    def publish_master(self, payload: dict[str, Any]) -> None:
        """Atomically replace ``master.json`` (pids/strategy/respawns)."""
        self._write("master.json", payload)

    def read_master(self) -> dict[str, Any] | None:
        """The master's last published record, or None before first
        publish (or if the file is torn mid-replace)."""
        try:
            return json.loads((self.root / "master.json").read_text())
        except (OSError, ValueError):
            return None

    def worker_payloads(self) -> list[dict[str, Any]]:
        """Every parseable ``worker-*.json`` payload, sorted by name;
        corrupt or vanished files are skipped, never fatal."""
        payloads = []
        for path in sorted(self.root.glob("worker-*.json")):
            try:
                payloads.append(json.loads(path.read_text()))
            except (OSError, ValueError):
                continue  # vanished or half-stale file: skip, not fail
        return payloads

    def merged(self) -> dict[str, Any]:
        """Sum every worker file's counters into one cluster view."""
        per_worker: dict[str, dict[str, int]] = {}
        endpoints: dict[str, dict[str, float]] = {}
        memory = {"hits": 0, "misses": 0, "evictions": 0, "expirations": 0}
        coalesced = 0
        for payload in self.worker_payloads():
            pid = str(payload.get("pid", "?"))
            own_requests = own_errors = 0
            for label, counts in payload.get("endpoints", {}).items():
                agg = endpoints.setdefault(
                    label,
                    {"requests": 0, "errors": 0, "total_seconds": 0.0},
                )
                agg["requests"] += counts.get("requests", 0)
                agg["errors"] += counts.get("errors", 0)
                agg["total_seconds"] += counts.get("total_seconds", 0.0)
                own_requests += counts.get("requests", 0)
                own_errors += counts.get("errors", 0)
            per_worker[pid] = {"requests": own_requests, "errors": own_errors}
            mem = payload.get("cache", {}).get("memory") or {}
            for key in memory:
                memory[key] += mem.get(key, 0)
            coalesced += payload.get("cache", {}).get("coalesced", 0)
        for agg in endpoints.values():
            agg["total_seconds"] = round(agg["total_seconds"], 6)
        return {
            "workers_seen": len(per_worker),
            "requests": sum(w["requests"] for w in per_worker.values()),
            "errors": sum(w["errors"] for w in per_worker.values()),
            "per_worker": dict(sorted(per_worker.items())),
            "endpoints": dict(sorted(endpoints.items())),
            "cache": {"memory": memory, "coalesced": coalesced},
        }


class WorkerState:
    """One worker's identity + publication hook, injected into the app.

    :meth:`metrics_payload` is what ``GET /metrics`` renders under the
    ``prefork`` key: this worker's identity, the master's supervision
    record, and the merged cross-worker counters (freshness bounded by
    :data:`PUBLISH_INTERVAL`; the responding worker republishes itself
    first, so its own contribution is always current).
    """

    def __init__(self, metrics_dir: MetricsDir, index: int, workers: int,
                 strategy: str) -> None:
        self.metrics_dir = metrics_dir
        self.index = index
        self.workers = workers
        self.strategy = strategy
        self.pid = os.getpid()
        self._last: str | None = None

    def snapshot(self, service: Any) -> dict[str, Any]:
        """This worker's mergeable counters (no percentiles): request/
        error/seconds per endpoint plus memory-cache and coalescing
        totals."""
        return {
            "pid": self.pid,
            "worker_index": self.index,
            "endpoints": service.metrics.counters(),
            "cache": {
                "memory": service.cache.stats.as_dict(),
                "coalesced": service.flight.coalesced,
            },
        }

    def publish(self, service: Any) -> None:
        """Write this worker's counters file iff they changed."""
        payload = self.snapshot(service)
        encoded = json.dumps(payload, sort_keys=True)
        if encoded == self._last:
            return
        self._last = encoded
        self.metrics_dir.publish_worker(self.pid, payload)

    def metrics_payload(self, service: Any) -> dict[str, Any]:
        """What ``GET /metrics`` reports under ``"prefork"``: this
        worker's identity plus the master record and the merged
        cross-worker totals (self-published first, so the responding
        worker's own counters are never stale)."""
        self.publish(service)
        return {
            "pid": self.pid,
            "worker_index": self.index,
            "workers": self.workers,
            "strategy": self.strategy,
            "master": self.metrics_dir.read_master(),
            "merged": self.metrics_dir.merged(),
        }


def _worker_trace_path(trace: str, pid: int) -> str:
    path = Path(trace)
    return str(path.with_name(f"{path.stem}.w{pid}{path.suffix}"))


def _worker_main(
    index: int,
    lsock: socket.socket,
    strategy: str,
    host: str,
    port: int,
    workers: int,
    metrics_dir: MetricsDir,
    master_pid: int,
    drain_timeout: float,
    server_kwargs: dict[str, Any],
    trace: str | None,
) -> int:
    """Run one worker until SIGTERM (or master death); returns exit code."""
    from repro.obs import trace as obs
    from repro.service.server import create_server

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    # The master coordinates shutdown; a terminal Ctrl-C reaches the
    # whole process group, so workers ignore SIGINT and wait for the
    # master's SIGTERM instead of racing it with KeyboardInterrupt.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    if trace:
        obs.configure(_worker_trace_path(trace, os.getpid()))

    if strategy == "reuseport":
        lsock.close()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
        sock.listen(128)
    else:
        sock = lsock
        # Every worker polls this one listener and all of them wake on
        # each connection.  The losers must get EAGAIN (socketserver
        # ignores it) rather than block in accept(), where shutdown()
        # would wait forever for serve_forever to return.
        sock.setblocking(False)

    state = WorkerState(metrics_dir, index=index, workers=workers,
                        strategy=strategy)
    server = create_server(sock=sock, prefork=state, **server_kwargs)
    runner = threading.Thread(target=server.serve_forever, daemon=True)
    runner.start()

    def publisher() -> None:
        while not stop.wait(PUBLISH_INTERVAL):
            state.publish(server.service)
            if os.getppid() != master_pid:
                stop.set()  # master died: drain rather than linger

    pub = threading.Thread(target=publisher, daemon=True)
    pub.start()
    stop.wait()
    drained = server.drain(timeout=drain_timeout)
    runner.join(timeout=drain_timeout)
    state.publish(server.service)
    if trace:
        obs.disable()
    return 0 if drained else 1


def _spawn(index: int, **worker_args: Any) -> int:
    pid = os.fork()
    if pid != 0:
        return pid
    code = 1
    try:
        code = _worker_main(index, **worker_args)
    except BaseException:
        traceback.print_exc()
        code = 1
    finally:
        # Never return into the master's stack frame.
        os._exit(code)


def serve_prefork(
    host: str = "127.0.0.1",
    port: int = 8080,
    workers: int = 2,
    store: str | None = None,
    cache_size: int = 1024,
    ttl: float = 300.0,
    max_workers: int = 8,
    verbose: bool = False,
    drain_timeout: float = 10.0,
    trace: str | None = None,
    snapshot: str | None = None,
    metrics_dir: str | Path | None = None,
    respawn_limit: int | None = None,
) -> int:
    """Master entry point: bind, fork, supervise, drain; returns exit code.

    Must run on the main thread (it owns the process's signal
    handlers).  Raises :class:`PreforkUnavailableError` before binding
    anything when the platform cannot pre-fork.
    """
    if workers < 2:
        raise ValueError("serve_prefork needs workers >= 2; "
                         "use repro.service.server.serve for one process")
    strategy = choose_strategy()
    if respawn_limit is None:
        respawn_limit = DEFAULT_RESPAWN_LIMIT
    if snapshot is not None:
        # Validate once at boot so a corrupt/stale file is one clean
        # master-side error instead of N identical worker crashes.
        from repro.fabric.snapshot import CatalogSnapshot
        from repro.harness.store import default_salt

        with CatalogSnapshot(snapshot, expected_salt=default_salt()):
            pass
    # Import the job functions once here; every forked worker inherits them.
    preload_jobs(BUILTIN_JOBS)

    lsock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    if strategy == "reuseport":
        lsock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    try:
        lsock.bind((host, port))
    except OSError as exc:
        lsock.close()
        raise listen_error(host, port, exc) from exc
    bound_host, bound_port = lsock.getsockname()[:2]
    if strategy == "inherited":
        # Workers accept on this inherited descriptor.
        lsock.listen(128)
    # reuseport: the master's socket stays bound but never listens --
    # it is only the port reservation that survives worker deaths.

    mdir = MetricsDir(
        metrics_dir
        if metrics_dir is not None
        else tempfile.mkdtemp(prefix="repro-prefork-metrics-")
    )
    server_kwargs = dict(
        store=store,
        cache_size=cache_size,
        ttl=ttl,
        max_workers=max_workers,
        verbose=verbose,
        snapshot=snapshot,
    )
    worker_args = dict(
        lsock=lsock,
        strategy=strategy,
        host=bound_host,
        port=bound_port,
        workers=workers,
        metrics_dir=mdir,
        master_pid=os.getpid(),
        drain_timeout=drain_timeout,
        server_kwargs=server_kwargs,
        trace=trace,
    )

    stop = threading.Event()
    previous = {
        sig: signal.signal(sig, lambda signum, frame: stop.set())
        for sig in (signal.SIGTERM, signal.SIGINT)
    }

    children: dict[int, int] = {}  # pid -> worker index
    respawns = 0

    def publish_master() -> None:
        mdir.publish_master({
            "pid": os.getpid(),
            "strategy": strategy,
            "workers": workers,
            "respawns": respawns,
            "respawn_limit": respawn_limit,
            "pids": sorted(children),
        })

    for index in range(workers):
        children[_spawn(index, **worker_args)] = index
    publish_master()

    store_note = f", store={store}" if store else ", no store"
    print(
        f"repro-service {__version__} prefork master pid={os.getpid()} "
        f"listening on http://{bound_host}:{bound_port} "
        f"(workers={workers}, strategy={strategy}, ttl={ttl:g}s"
        f"{store_note}, metrics={mdir.root})",
        flush=True,
    )

    exhausted = False
    try:
        while not stop.is_set():
            time.sleep(0.05)
            for pid in list(children):
                done, _status = os.waitpid(pid, os.WNOHANG)
                if done == 0:
                    continue
                index = children.pop(pid)
                if stop.is_set():
                    continue
                if respawns >= respawn_limit:
                    print(
                        f"worker {pid} died; respawn limit "
                        f"({respawn_limit}) exhausted, shutting down",
                        file=sys.stderr, flush=True,
                    )
                    exhausted = True
                    stop.set()
                    break
                respawns += 1
                new_pid = _spawn(index, **worker_args)
                children[new_pid] = index
                print(
                    f"worker {pid} died; respawned as {new_pid} "
                    f"({respawns}/{respawn_limit})",
                    flush=True,
                )
                publish_master()
    finally:
        print("draining workers ...", flush=True)
        for pid in children:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + drain_timeout + 5.0
        clean = not exhausted
        pending = dict(children)
        while pending and time.monotonic() < deadline:
            for pid in list(pending):
                done, status = os.waitpid(pid, os.WNOHANG)
                if done != 0:
                    pending.pop(pid)
                    if os.waitstatus_to_exitcode(status) != 0:
                        clean = False
            time.sleep(0.02)
        for pid in pending:  # drain timed out: escalate
            clean = False
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(pid, 0)
        children.clear()
        publish_master()
        lsock.close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        print("bye" if clean else "shutdown was not clean", flush=True)
    return 0 if clean else 1
