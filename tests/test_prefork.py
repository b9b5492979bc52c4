"""Lifecycle tests for the pre-fork service tier (:mod:`repro.service.prefork`).

The master/worker tree must run as real processes (the master owns
process-wide signal handlers), so these tests drive
``python -m repro serve --workers N`` as a subprocess, parse the bound
port from its boot line, and exercise the contract:

* worker SIGKILL mid-service -> respawned, port keeps answering;
* SIGTERM to the master -> workers drain (in-flight completes,
  keep-alive stragglers get 503/close), master exits 0;
* merged ``/metrics`` counters and latency histograms across worker
  files equal exactly the number of requests the client sent;
* the master removes the metrics directory it made, and keeps one the
  user named, cleared of an earlier run's files;
* a SIGKILLed master's workers drain and remove the directory it made;
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

from repro.service.metrics import ServiceMetrics
from repro.service.prefork import (
    MetricsDir,
    PreforkUnavailableError,
    serve_prefork,
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork") or not hasattr(socket, "SO_REUSEPORT"),
    reason="prefork needs os.fork and SO_REUSEPORT",
)


def _get(port: int, path: str, timeout: float = 10.0) -> tuple[int, dict]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, json.loads(resp.read().decode("utf-8"))
    finally:
        conn.close()


def _running(pid: int) -> bool:
    """Whether ``pid`` is a live process (not gone, not a zombie)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] not in "XZ"


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
                 tmpdir: Path | None = None):
        """With ``tmpdir``, the master runs with that ``TMPDIR`` and
        makes its own metrics directory there."""
        env = dict(
            os.environ,
            PYTHONPATH=REPO_SRC,
            REPRO_SERVICE_DEBUG="1",
        )
        self.metrics_dir = tmp_path / "metrics"
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--workers", str(workers), "--port", "0",
            "--store", str(tmp_path / "store"),
            "--drain-timeout", "10",
        ]
        if tmpdir is None:
            argv += ["--metrics-dir", str(self.metrics_dir)]
        else:
            env["TMPDIR"] = str(tmpdir)
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


class TestLifecycle:
    def test_workers_share_one_port(self, tmp_path):
        master = _Master(tmp_path, workers=2)
        try:
            pids = {
                _get_retry(master.port, "/healthz")["pid"] for _ in range(40)
            }
            record = master.master_record()
            assert len(record["pids"]) == 2
            assert pids <= set(record["pids"])
            # 40 fresh connections hash across both listeners;
            # P(all land on one of 2) ~ 2^-39.
            assert len(pids) == 2
            out = master.terminate(expect_code=0)
            assert "bye" in out
            assert master.metrics_dir.is_dir()  # named by the user: kept
        finally:
            master.kill()

    def test_master_removes_the_metrics_dir_it_made(self, tmp_path):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        master = _Master(tmp_path, workers=2, tmpdir=scratch)
        try:
            assert [p.name[:22] for p in scratch.iterdir()] == [
                "repro-prefork-metrics-"
            ]
            out = master.terminate(expect_code=0)
            assert "bye" in out
            assert list(scratch.iterdir()) == []
        finally:
            master.kill()

    def test_a_reused_metrics_dir_merges_only_this_run(self, tmp_path):
        """A named ``--metrics-dir`` keeps its files after a run; the next
        master clears them before it forks, so its merge counts only its
        own requests (the earlier run's worker files made 4 requests read
        as 9 across 4 workers)."""
        for _ in range(2):
            master = _Master(tmp_path, workers=2)
            try:
                sent = 1  # the constructor's readiness probe
                for _ in range(3):
                    _get_retry(master.port, "/healthz")
                    sent += 1
                time.sleep(0.8)  # every worker's publisher ticks
                status, metrics = _get(master.port, "/metrics")
                assert status == 200
                merged = metrics["prefork"]["merged"]
                assert merged["requests"] == sent, merged
                assert merged["workers_seen"] <= 2, merged
                master.terminate(expect_code=0)
            finally:
                master.kill()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_sigkilled_master_leaves_no_metrics_dir(self, tmp_path):
        """Killed, the master never removes the directory it made: its
        workers drain, each deletes its own file and ``master.json``, and
        the last one out removes the directory."""
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        master = _Master(tmp_path, workers=2, tmpdir=scratch)
        (mdir,) = scratch.iterdir()
        pids = json.loads((mdir / "master.json").read_text())["pids"]
        try:
            master.proc.kill()
            killed = time.monotonic()
            # The workers share the master's output pipe: it ends when
            # they exit.
            out, _ = master.proc.communicate(timeout=10)
            while time.monotonic() - killed < 5.0 and (
                any(map(_running, pids)) or any(scratch.iterdir())
            ):
                time.sleep(0.05)
            assert not [pid for pid in pids if _running(pid)]
            assert list(scratch.iterdir()) == []
            assert "Traceback" not in out, out
        finally:
            master.kill()
            for pid in pids:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

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
            # One process's /metrics shape, percentiles merged too.
            healthz = by_endpoint["GET /healthz"]
            assert set(healthz) == {"requests", "errors", "latency_ms"}
            assert healthz["requests"] == healthz["latency_ms"]["count"] == 13
            latency = healthz["latency_ms"]
            assert latency["p50"] <= latency["p95"] <= latency["p99"] <= latency["max"]
            assert by_endpoint["GET /v1/bandwidth"]["requests"] == 8
            assert by_endpoint["GET /v1/bandwidth"]["latency_ms"]["count"] == 8
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
    """``SO_REUSEPORT`` is the tier's one socket strategy; without it the
    master refuses before it binds or forks anything."""

    def test_forced_reuseport_without_kernel_support(self, monkeypatch,
                                                     tmp_path):
        monkeypatch.delattr(socket, "SO_REUSEPORT", raising=False)
        with pytest.raises(PreforkUnavailableError, match="SO_REUSEPORT"):
            serve_prefork(port=0, workers=2,
                          metrics_dir=tmp_path / "metrics")
        assert not (tmp_path / "metrics").exists()


class TestMetricsDir:
    def test_merge_sums_counters(self, tmp_path):
        """Adding two workers' records renders as one process that
        served both streams."""
        first, second, both = ServiceMetrics(), ServiceMetrics(), ServiceMetrics()
        for metrics, endpoint, status, seconds in [
            (first, "GET /x", 200, 0.5), (first, "GET /x", 500, 0.25),
            (first, "GET /x", 200, 0.125), (second, "GET /x", 200, 0.0625),
            (second, "GET /y", 200, 0.1),
        ]:
            metrics.observe(endpoint, status, seconds)
            both.observe(endpoint, status, seconds)
        mdir = MetricsDir(tmp_path)
        mdir.publish_worker(11, {
            "pid": 11,
            "endpoints": first.records(),
            "cache": {"memory": {"hits": 2, "misses": 1, "evictions": 0,
                                 "expirations": 0}, "coalesced": 1},
        })
        mdir.publish_worker(22, {
            "pid": 22,
            "endpoints": second.records(),
            "cache": {"memory": {"hits": 4, "misses": 3, "evictions": 2,
                                 "expirations": 1}, "coalesced": 0},
        })
        merged = mdir.merged()
        assert merged["workers_seen"] == 2
        assert merged["requests"] == 5
        assert merged["errors"] == 1
        assert merged["per_worker"] == {
            "11": {"requests": 3, "errors": 1},
            "22": {"requests": 2, "errors": 0},
        }
        assert merged["endpoints"] == both.snapshot()
        assert merged["endpoints"]["GET /x"]["latency_ms"]["max"] == 500.0
        assert merged["cache"]["memory"]["hits"] == 6
        assert merged["cache"]["coalesced"] == 1

    def test_corrupt_file_skipped_not_fatal(self, tmp_path):
        mdir = MetricsDir(tmp_path)
        mdir.publish_worker(1, {"pid": 1, "endpoints": {}, "cache": {}})
        (tmp_path / "worker-9.json").write_text("{torn")
        # counters without histogram buckets: not this version's record
        mdir.publish_worker(8, {
            "pid": 8,
            "endpoints": {"GET /x": {"requests": 3, "errors": 0,
                                     "total_seconds": 0.5}},
            "cache": {},
        })
        merged = mdir.merged()
        assert merged["workers_seen"] == 1
        assert merged["endpoints"] == {}

    def test_atomic_publish_leaves_no_tmp_files(self, tmp_path):
        mdir = MetricsDir(tmp_path)
        for _ in range(5):
            mdir.publish_worker(1, {"pid": 1, "endpoints": {}, "cache": {}})
        assert [p.name for p in tmp_path.glob("*")] == ["worker-1.json"]
