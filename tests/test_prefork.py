"""Lifecycle tests for the pre-fork service tier (:mod:`repro.service.prefork`).

The master/worker tree must run as real processes (the master owns
process-wide signal handlers), so these tests drive
``python -m repro serve --workers N`` as a subprocess, parse the bound
port from its boot line, and exercise the contract:

* worker SIGKILL mid-service -> respawned, port keeps answering;
* SIGTERM to the master -> workers drain (in-flight completes,
  keep-alive stragglers get 503/close), master exits 0;
* merged ``/metrics`` counters across worker files equal exactly the
  number of requests the client sent;
* ``--workers 1`` takes the pre-existing single-process path.

``REPRO_SERVICE_DEBUG=1`` enables the ``/debug/sleep`` endpoint so the
drain test can hold a request in flight for a *chosen* duration
instead of racing real compute times.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.service.prefork import (
    MetricsDir,
    PreforkUnavailableError,
    choose_strategy,
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="prefork needs os.fork"
)


def _get(port: int, path: str, timeout: float = 10.0) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode("utf-8"))
    finally:
        conn.close()


def _get_retry(port: int, path: str, attempts: int = 50) -> dict:
    last: Exception | None = None
    for _ in range(attempts):
        try:
            status, payload = _get(port, path)
            if status == 200:
                return payload
        except OSError as exc:
            last = exc
        time.sleep(0.1)
    raise AssertionError(f"{path} never answered 200: {last}")


class _Master:
    """A ``repro serve --workers N`` subprocess + its parsed port."""

    def __init__(self, tmp_path: Path, workers: int = 2,
                 strategy: str | None = None, extra: list[str] = ()):
        env = dict(
            os.environ,
            PYTHONPATH=REPO_SRC,
            REPRO_SERVICE_DEBUG="1",
        )
        if strategy:
            env["REPRO_PREFORK"] = strategy
        self.metrics_dir = tmp_path / "metrics"
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--workers", str(workers), "--port", "0",
            "--store", str(tmp_path / "store"),
            "--metrics-dir", str(self.metrics_dir),
            "--drain-timeout", "10",
            *extra,
        ]
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        line = self.proc.stdout.readline()
        match = re.search(r"listening on http://[\d.]+:(\d+)", line)
        assert match, f"unexpected boot line: {line!r}"
        assert "prefork master" in line, line
        self.port = int(match.group(1))
        _get_retry(self.port, "/healthz")

    def master_record(self) -> dict:
        return json.loads((self.metrics_dir / "master.json").read_text())

    def terminate(self, expect_code: int = 0, timeout: float = 30.0) -> str:
        self.proc.send_signal(signal.SIGTERM)
        out, _ = self.proc.communicate(timeout=timeout)
        assert self.proc.returncode == expect_code, (
            self.proc.returncode, out,
        )
        return out

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate(timeout=10)


@pytest.fixture(params=["reuseport", "inherited"])
def strategy(request):
    if request.param == "reuseport" and not hasattr(socket, "SO_REUSEPORT"):
        pytest.skip("no SO_REUSEPORT on this platform")
    return request.param


class TestLifecycle:
    def test_workers_share_one_port(self, tmp_path, strategy):
        master = _Master(tmp_path, workers=2, strategy=strategy)
        try:
            pids = {
                _get_retry(master.port, "/healthz")["pid"] for _ in range(40)
            }
            record = master.master_record()
            assert record["strategy"] == strategy
            assert len(record["pids"]) == 2
            assert pids <= set(record["pids"])
            if strategy == "reuseport":
                # 40 fresh connections hash across both listeners;
                # P(all land on one of 2) ~ 2^-39.
                assert len(pids) == 2
            out = master.terminate(expect_code=0)
            assert "bye" in out
        finally:
            master.kill()

    def test_sigkill_worker_respawns_no_dropped_listener(self, tmp_path):
        master = _Master(tmp_path, workers=2)
        try:
            victim = _get_retry(master.port, "/healthz")["pid"]
            assert victim in master.master_record()["pids"]
            os.kill(victim, signal.SIGKILL)
            # The port must keep answering throughout the respawn
            # window (the master's placeholder bind holds the port; the
            # sibling worker holds a live listener).
            for _ in range(20):
                _get_retry(master.port, "/healthz", attempts=20)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                record = master.master_record()
                if record["respawns"] >= 1 and len(record["pids"]) == 2:
                    break
                time.sleep(0.05)
            else:
                pytest.fail(f"no respawn recorded: {master.master_record()}")
            assert victim not in record["pids"]
            new_pids = {
                _get_retry(master.port, "/healthz")["pid"] for _ in range(40)
            }
            assert new_pids <= set(record["pids"])
            master.terminate(expect_code=0)
        finally:
            master.kill()

    def test_sigterm_drains_in_flight_then_exits_zero(self, tmp_path):
        master = _Master(tmp_path, workers=2)
        try:
            # Hold one request in flight on a dedicated connection.
            slow = http.client.HTTPConnection(
                "127.0.0.1", master.port, timeout=30
            )
            slow.request("GET", "/debug/sleep?seconds=1.5")
            # Separate keep-alive connection, established pre-drain.
            idle = http.client.HTTPConnection(
                "127.0.0.1", master.port, timeout=30
            )
            idle.request("GET", "/healthz")
            idle.getresponse().read()
            time.sleep(0.2)  # the sleep request is now in flight
            master.proc.send_signal(signal.SIGTERM)
            time.sleep(0.3)  # workers are draining
            # A request on the pre-existing keep-alive connection is
            # answered 503 "draining" while its worker still drains
            # (or the socket is closed if that worker already exited).
            try:
                idle.request("GET", "/healthz")
                resp = idle.getresponse()
                body = json.loads(resp.read().decode("utf-8"))
                assert resp.status == 503, body
                assert body["error"]["code"] == "draining"
            except (ConnectionError, http.client.HTTPException, OSError):
                pass
            # The in-flight request ran to completion regardless.
            resp = slow.getresponse()
            payload = json.loads(resp.read().decode("utf-8"))
            assert resp.status == 200
            assert payload["slept"] == 1.5
            slow.close()
            idle.close()
            out, _ = master.proc.communicate(timeout=30)
            assert master.proc.returncode == 0, out
            assert "bye" in out
        finally:
            master.kill()

    def test_merged_metrics_equal_sum_of_worker_counters(self, tmp_path):
        master = _Master(tmp_path, workers=2)
        try:
            sent = 1  # the constructor's readiness probe is counted too
            for i in range(12):
                _get_retry(master.port, "/healthz")
                sent += 1
            for i in range(8):
                status, _ = _get(
                    master.port, "/v1/bandwidth?family=mesh_2&size=16"
                )
                assert status == 200
                sent += 1
            # Let every worker's publisher tick (interval 0.25 s).
            time.sleep(0.8)
            status, metrics = _get(master.port, "/metrics")
            assert status == 200
            prefork = metrics["prefork"]
            assert prefork["workers"] == 2
            assert prefork["strategy"] in ("reuseport", "inherited")
            assert prefork["master"]["respawns"] == 0
            merged = prefork["merged"]
            # Exactly every client request is counted once (the
            # /metrics request itself is recorded only after its
            # response is built).
            assert merged["requests"] == sent, merged
            assert merged["errors"] == 0
            assert merged["requests"] == sum(
                w["requests"] for w in merged["per_worker"].values()
            )
            by_endpoint = merged["endpoints"]
            assert by_endpoint["GET /healthz"]["requests"] == 13
            assert by_endpoint["GET /v1/bandwidth"]["requests"] == 8
            # Cross-worker single-flight does not exist; per-process
            # memory caches plus the shared store dedup the compute.
            assert merged["cache"]["memory"]["misses"] >= 1
            master.terminate(expect_code=0)
        finally:
            master.kill()

    def test_workers_1_is_the_single_process_path(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--workers", "1", "--port", "0",
            ],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        try:
            line = proc.stdout.readline()
            assert "prefork" not in line  # plain serve() boot line
            match = re.search(r"listening on http://[\d.]+:(\d+)", line)
            assert match, line
            port = int(match.group(1))
            payload = _get_retry(port, "/healthz")
            assert payload["pid"] == proc.pid  # no forked workers
            assert "worker_index" not in payload
            status, metrics = _get(port, "/metrics")
            assert metrics["prefork"] is None  # stable key, null value
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)


#: Runs ``repro serve ARGS``; just before the URL line, prints which
#: of the modules in argv[1] are still unimported.
_BOOT_PROBE = """
import builtins, json, sys

modules = json.loads(sys.argv[1])
print_ = builtins.print


def probe(*args, **kwargs):
    if "listening on" in " ".join(map(str, args)):
        missing = [m for m in modules if m not in sys.modules]
        print_(json.dumps(missing), flush=True)
    print_(*args, **kwargs)


builtins.print = probe
from repro.cli import main

sys.exit(main(sys.argv[2:]))
"""


def _operation_job_modules() -> list[str]:
    """The module of every job function the operation table runs."""
    from repro.operations import OPERATIONS, catalog_jobs

    requests = {
        "bandwidth": [{"family": "mesh_2"},
                      {"family": "mesh_2", "replicates": 3}],
        "catalog": [{}],
        "emulate": [{"guest": "de_bruijn", "host": "mesh_2"}],
        "saturation": [{"family": "mesh_2"}],
    }
    assert set(requests) == {n for n, op in OPERATIONS.items() if op.schema}
    modules = set()
    for name, variants in requests.items():
        op = OPERATIONS[name]
        for params in variants:
            valid = op.schema.validate(params)
            jobs = catalog_jobs(valid) if op.job is None else [op.job(valid)]
            modules |= {job.fn.partition(":")[0] for job in jobs}
    return sorted(modules)


class TestBootResolvesJobs:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_job_modules_imported_before_the_url(self, workers):
        """Neither the first request nor a forked worker pays for the
        job functions' imports: ``serve`` resolves them first."""
        modules = _operation_job_modules()
        assert len(modules) == 4, modules
        proc = subprocess.Popen(
            [sys.executable, "-c", _BOOT_PROBE, json.dumps(modules),
             "serve", "--port", "0", "--workers", str(workers)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=dict(os.environ, PYTHONPATH=REPO_SRC),
        )
        try:
            missing = proc.stdout.readline()
            boot = proc.stdout.readline()
            match = re.search(r"listening on http://[\d.]+:(\d+)", boot)
            assert match, (missing, boot)
            _get_retry(int(match.group(1)), "/healthz")
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
            assert proc.returncode == 0, out
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=10)
        assert json.loads(missing) == []


class TestChooseStrategy:
    def test_default_on_this_platform(self):
        assert choose_strategy() in ("reuseport", "inherited")

    def test_force_inherited(self):
        assert choose_strategy("inherited") == "inherited"

    def test_unknown_strategy_rejected(self):
        with pytest.raises(PreforkUnavailableError, match="unknown prefork"):
            choose_strategy("threads")

    def test_no_fork_is_unavailable(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(PreforkUnavailableError, match="os.fork"):
            choose_strategy()

    def test_forced_reuseport_without_kernel_support(self, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        with pytest.raises(PreforkUnavailableError, match="SO_REUSEPORT"):
            choose_strategy("reuseport")

    def test_missing_reuseport_falls_back_to_inherited(self, monkeypatch):
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        assert choose_strategy() == "inherited"


class TestMetricsDir:
    def test_merge_sums_counters(self, tmp_path):
        mdir = MetricsDir(tmp_path)
        mdir.publish_worker(11, {
            "pid": 11,
            "endpoints": {
                "GET /x": {"requests": 3, "errors": 1, "total_seconds": 0.5},
            },
            "cache": {"memory": {"hits": 2, "misses": 1, "evictions": 0,
                                 "expirations": 0}, "coalesced": 1},
        })
        mdir.publish_worker(22, {
            "pid": 22,
            "endpoints": {
                "GET /x": {"requests": 5, "errors": 0, "total_seconds": 0.25},
                "GET /y": {"requests": 2, "errors": 0, "total_seconds": 0.1},
            },
            "cache": {"memory": {"hits": 4, "misses": 3, "evictions": 2,
                                 "expirations": 1}, "coalesced": 0},
        })
        merged = mdir.merged()
        assert merged["workers_seen"] == 2
        assert merged["requests"] == 10
        assert merged["errors"] == 1
        assert merged["per_worker"] == {
            "11": {"requests": 3, "errors": 1},
            "22": {"requests": 7, "errors": 0},
        }
        assert merged["endpoints"]["GET /x"] == {
            "requests": 8, "errors": 1, "total_seconds": 0.75,
        }
        assert merged["cache"]["memory"]["hits"] == 6
        assert merged["cache"]["coalesced"] == 1

    def test_corrupt_file_skipped_not_fatal(self, tmp_path):
        mdir = MetricsDir(tmp_path)
        mdir.publish_worker(1, {"pid": 1, "endpoints": {}, "cache": {}})
        (tmp_path / "worker-9.json").write_text("{torn")
        merged = mdir.merged()
        assert merged["workers_seen"] == 1

    def test_atomic_publish_leaves_no_tmp_files(self, tmp_path):
        mdir = MetricsDir(tmp_path)
        for _ in range(5):
            mdir.publish_worker(1, {"pid": 1, "endpoints": {}, "cache": {}})
        assert [p.name for p in tmp_path.glob("*")] == ["worker-1.json"]
