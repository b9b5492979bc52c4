"""Tests for the sweep fabric: queue protocol, failure modes, snapshots.

The failure-mode tests stage real crashes -- ``SIGKILL`` of a forked
worker mid-job, a coordinator "restart" as a brand-new object on the
same queue directory -- and assert the fabric's two contracts:

* **bit-identity**: a fabric sweep equals a serial sweep of the same
  grid, byte for byte, no matter what died along the way;
* **no recompute**: cells settled before a crash are never executed
  again (their result files are untouched, mtime and bytes).

Job functions live at module level so workers (separate processes) can
import them as ``tests.test_fabric:<name>``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.fabric import (
    CatalogSnapshot,
    Coordinator,
    FabricExecutor,
    QueueConfig,
    SnapshotError,
    WorkQueue,
    build_snapshot,
    worker_loop,
    write_snapshot,
)
from repro.harness import (
    Job,
    TransientJobError,
    canonical_json,
    default_salt,
    run_sweep,
)
from repro.obs import MemorySink
from repro.obs import trace as obs

# -- job functions (imported by worker subprocesses) -------------------------


def double_job(spec):
    """Instant deterministic cell: doubles ``x``."""
    return {"x": spec["x"], "doubled": spec["x"] * 2}


def sleepy_job(spec):
    """Deterministic cell that holds its lease for ``sleep`` seconds."""
    time.sleep(spec["sleep"])
    return {"x": spec["x"], "squared": spec["x"] ** 2}


def flaky_once_job(spec):
    """Fails transiently on the first attempt (scratch-file counter)."""
    marker = Path(spec["scratch"]) / f"attempt-{spec['x']}"
    if not marker.exists():
        marker.write_text("tried")
        raise TransientJobError("first attempt flakes")
    return {"x": spec["x"]}


def always_transient_job(spec):
    """Exhausts the attempt budget: every try fails transiently."""
    raise TransientJobError("never works")


def broken_job(spec):
    """Deterministic failure: retrying would be pointless."""
    raise ValueError("bad spec, every time")


#: The process that imported this module.
_IMPORTED_BY = os.getpid()


def importer_pid_job(spec):
    """Which process imported this module, and which one runs the cell."""
    return {"imported_by": _IMPORTED_BY, "runs_in": os.getpid()}


def _grid(n, fn="tests.test_fabric:double_job"):
    return [Job(fn, {"x": i}) for i in range(n)]


# -- the queue protocol ------------------------------------------------------


class TestWorkQueue:
    def test_add_is_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        job = Job("tests.test_fabric:double_job", {"x": 1})
        assert queue.add(job) is True
        assert queue.add(job) is False
        assert queue.counts()["jobs"] == 1
        assert queue.counts()["pending"] == 1

    def test_claim_moves_exactly_one_cell(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        for job in _grid(2):
            queue.add(job)
        lease = queue.claim("w1")
        assert lease is not None and lease.attempts == 1
        counts = queue.counts()
        assert counts["pending"] == 1 and counts["leased"] == 1
        other = queue.claim("w2")
        assert other is not None and other.job_hash != lease.job_hash
        assert queue.claim("w3") is None

    def test_complete_settles_and_is_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.add(_grid(1)[0])
        lease = queue.claim("w1")
        queue.complete(lease, {"v": 1}, seconds=0.5)
        queue.complete(lease, {"v": 1}, seconds=0.7)  # slow duplicate
        assert queue.counts()["done"] == 1
        assert queue.unsettled() == 0
        payload = queue.result(lease.job_hash)
        assert payload["value"] == {"v": 1} and payload["worker"] == "w1"

    def test_heartbeat_reports_revocation(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        queue.add(_grid(1)[0])
        lease = queue.claim("w1")
        assert queue.heartbeat(lease) is True
        (queue.leases_dir / lease.job_hash).unlink()  # coordinator revoked it
        assert queue.heartbeat(lease) is False

    def test_expire_stale_requeues_with_attempts_preserved(self, tmp_path):
        config = QueueConfig(lease_ttl=5.0, max_attempts=3)
        queue = WorkQueue(tmp_path / "q", config=config)
        queue.add(_grid(1)[0])
        lease = queue.claim("w1")
        assert queue.expire_stale() == []  # fresh heartbeat survives
        expired = queue.expire_stale(now=time.time() + 6.0)
        assert expired == [(lease.job_hash, "requeued")]
        release = queue.claim("w2")
        assert release.attempts == 2

    def test_mid_claim_lease_ages_from_the_claim(self, tmp_path, monkeypatch):
        """Until a claim writes its lease, the lease file is the renamed
        pending marker (no heartbeat): it must age from the claim, not
        from the enqueue, or a healthy claim is re-queued."""
        import repro.fabric.queue as queue_module

        queue = WorkQueue(tmp_path / "q", config=QueueConfig(lease_ttl=5.0))
        job = _grid(1)[0]
        queue.add(job)
        enqueued = time.time() - 60.0
        os.utime(queue.pending_dir / job.job_hash, (enqueued, enqueued))

        class Died(Exception):
            pass

        def die(path, text):  # the claimer stops right after its rename
            raise Died

        monkeypatch.setattr(queue_module, "_write_atomic", die)
        with pytest.raises(Died):
            queue.claim("w1")
        monkeypatch.undo()
        assert (queue.leases_dir / job.job_hash).exists()
        assert queue.expire_stale() == []
        expired = queue.expire_stale(now=time.time() + 6.0)
        assert expired == [(job.job_hash, "requeued")]

    def test_expire_stale_fails_terminally_past_budget(self, tmp_path):
        config = QueueConfig(lease_ttl=1.0, max_attempts=1)
        queue = WorkQueue(tmp_path / "q", config=config)
        queue.add(_grid(1)[0])
        lease = queue.claim("w1")
        expired = queue.expire_stale(now=time.time() + 2.0)
        assert expired == [(lease.job_hash, "failed")]
        failure = queue.failure(lease.job_hash)
        assert "lease lost" in failure["error"]
        assert queue.unsettled() == 0

    def test_claim_skips_already_settled_cells(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        job = _grid(1)[0]
        queue.add(job)
        lease = queue.claim("w1")
        queue.complete(lease, {"v": 1})
        # A stray pending marker (e.g. re-queued just before the slow
        # worker completed) must be settled, not recomputed.
        (queue.pending_dir / job.job_hash).write_text('{"attempts": 1}')
        assert queue.claim("w2") is None
        assert queue.counts()["pending"] == 0

    def test_config_round_trips_through_directory(self, tmp_path):
        config = QueueConfig(lease_ttl=7.5, max_attempts=5)
        WorkQueue(tmp_path / "q", config=config)
        reopened = WorkQueue(tmp_path / "q")  # a worker, config-less
        assert reopened.config == config

    def test_leftover_temp_files_are_not_cells(self, tmp_path):
        """A writer killed inside an atomic write leaves its ``.tmp``
        file; counting it would end a drain early or claim a non-cell."""
        queue = WorkQueue(tmp_path / "q")
        job = _grid(1)[0]
        queue.add(job)
        queue.seal()
        for directory in (queue.jobs_dir, queue.pending_dir, queue.results_dir):
            (directory / "tmpk3x9z1q0.tmp").write_text("{")
        assert queue.counts() == {
            "jobs": 1, "pending": 1, "leased": 0, "done": 0, "failed": 0,
        }
        lease = queue.claim("w1")
        assert lease.job_hash == job.job_hash
        assert queue.claim("w2") is None
        assert not queue.drained()
        queue.complete(lease, {"v": 1})
        assert queue.drained()

    def test_drained_requires_seal(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")
        assert not queue.drained()  # nothing enqueued, but not sealed
        queue.seal()
        assert queue.drained()


# -- fabric sweeps: bit-identity and the executor protocol -------------------


class TestFabricSweep:
    def test_hundred_cells_four_workers_bit_identical_to_serial(self):
        jobs = _grid(100)
        serial = run_sweep(jobs)
        fabric = run_sweep(jobs, executor=FabricExecutor(num_workers=4))
        assert serial.ok and fabric.ok
        assert canonical_json(fabric.values) == canonical_json(serial.values)
        assert fabric.executor == "fabric[4]"
        workers = {r.worker for r in fabric.results}
        assert all(w.startswith("fabric:") for w in workers)

    def test_resolve_by_name_through_run_sweep(self):
        jobs = _grid(3)
        sweep = run_sweep(jobs, executor="fabric")
        assert sweep.ok and sweep.executor.startswith("fabric[")
        assert sweep.values == run_sweep(jobs).values

    def test_store_backed_fabric_sweep_resumes(self, tmp_path):
        from repro.harness import ResultStore

        jobs = _grid(6)
        store = ResultStore(tmp_path / "store")
        first = run_sweep(jobs, executor=FabricExecutor(num_workers=2),
                          store=store)
        assert first.ok and first.num_cached == 0
        second = run_sweep(jobs, executor=FabricExecutor(num_workers=2),
                           store=store)
        assert second.ok and second.num_cached == len(jobs)
        assert canonical_json(second.values) == canonical_json(first.values)

    def test_each_result_is_read_once_and_streamed_once(self, monkeypatch):
        reads = []
        read = WorkQueue.result

        def counted(queue, job_hash):
            reads.append(job_hash)
            return read(queue, job_hash)

        monkeypatch.setattr(WorkQueue, "result", counted)
        jobs = _grid(20)
        streamed = []
        results = FabricExecutor(num_workers=2).run(jobs, on_result=streamed.append)
        hashes = sorted(job.job_hash for job in jobs)
        assert sorted(reads) == hashes
        assert sorted(r.job.job_hash for r in streamed) == hashes
        assert [r.job for r in results] == jobs
        by_hash = {r.job.job_hash: r for r in streamed}
        assert all(by_hash[r.job.job_hash] is r for r in results)

    def test_transient_failure_retries_to_success(self, tmp_path):
        jobs = [
            Job(
                "tests.test_fabric:flaky_once_job",
                {"x": i, "scratch": str(tmp_path)},
            )
            for i in range(3)
        ]
        sweep = run_sweep(
            jobs,
            executor=FabricExecutor(
                num_workers=1, heartbeat_interval=0.1, poll_interval=0.02
            ),
        )
        assert sweep.ok
        assert all(r.attempts == 2 for r in sweep.results)

    def test_attempt_budget_exhaustion_fails_terminally(self):
        jobs = [Job("tests.test_fabric:always_transient_job", {"x": 0})]
        sweep = run_sweep(
            jobs,
            executor=FabricExecutor(
                num_workers=1, max_attempts=2, heartbeat_interval=0.1,
                poll_interval=0.02,
            ),
        )
        result = sweep.results[0]
        assert not result.ok
        assert "never works" in result.error
        assert result.attempts == 2

    def test_deterministic_failure_does_not_retry(self):
        jobs = [Job("tests.test_fabric:broken_job", {"x": 0})]
        sweep = run_sweep(jobs, executor=FabricExecutor(num_workers=1))
        result = sweep.results[0]
        assert not result.ok
        assert "bad spec" in result.error
        assert result.attempts == 1

    def test_empty_grid(self):
        assert FabricExecutor(num_workers=2).run([]) == []

    def test_spawns_no_more_workers_than_cells(self):
        sink = MemorySink()
        with obs.tracing(sink=sink):
            sweep = run_sweep(_grid(2), executor=FabricExecutor(num_workers=4))
        assert sweep.ok
        spawned = [
            e for e in sink.events if e.get("name") == "fabric.worker_spawned"
        ]
        assert len(spawned) == 2


# -- forked workers inherit the job modules ----------------------------------

_FRESH_SWEEP = """
import json, os, sys
from repro.fabric import FabricExecutor
from repro.harness import Job, run_sweep

assert "tests.test_fabric" not in sys.modules
jobs = [Job("tests.test_fabric:importer_pid_job", {"x": x}) for x in range(4)]
sweep = run_sweep(jobs, executor=FabricExecutor(num_workers=2))
print(json.dumps({"coordinator": os.getpid(), "values": sweep.values}))
"""


class TestForkInheritance:
    def test_workers_start_with_the_job_module_imported(self):
        """The coordinator resolves each job function before it forks,
        so a worker never imports a cell's module itself."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_SWEEP], capture_output=True,
            text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        out = json.loads(proc.stdout.splitlines()[-1])
        coordinator = out["coordinator"]
        assert len(out["values"]) == 4
        for value in out["values"]:
            assert value["imported_by"] == coordinator, value
            assert value["runs_in"] != coordinator, value

    def test_unresolvable_job_fails_per_cell(self):
        jobs = [
            Job("repro.no_such_module:job", {"x": 0}),
            Job("tests.test_fabric:no_such_job", {"x": 1}),
            *_grid(2),
        ]
        serial = run_sweep(jobs)
        fabric = run_sweep(jobs, executor=FabricExecutor(num_workers=2))
        assert [r.ok for r in fabric.results] == [False, False, True, True]
        assert [r.error for r in fabric.results] == [r.error for r in serial.results]
        assert fabric.results[0].error == (
            "ModuleNotFoundError: No module named 'repro.no_such_module'"
        )
        assert fabric.values[2:] == serial.values[2:]


# -- failure modes: crashes mid-run ------------------------------------------


class TestFabricCrashes:
    def test_worker_sigkill_mid_job_lease_requeues_bit_identical(
        self, tmp_path
    ):
        jobs = [
            Job("tests.test_fabric:sleepy_job", {"x": i, "sleep": 0.3})
            for i in range(8)
        ]
        serial = run_sweep(jobs)
        config = QueueConfig(
            lease_ttl=0.6, heartbeat_interval=0.1, poll_interval=0.02
        )
        queue = WorkQueue(tmp_path / "q", config=config)
        coordinator = Coordinator(queue, num_workers=2)
        box = {}
        runner = threading.Thread(
            target=lambda: box.setdefault("results", coordinator.run(jobs))
        )
        runner.start()
        # Wait for a worker to be holding a lease, then SIGKILL it
        # mid-job: its lease must expire and the cell re-lease.
        deadline = time.monotonic() + 30.0
        victim = None
        while time.monotonic() < deadline:
            if coordinator.workers and queue.counts()["leased"] > 0:
                victim = coordinator.workers[0]
                break
            time.sleep(0.02)
        assert victim is not None, "no worker ever held a lease"
        os.kill(victim.pid, signal.SIGKILL)
        runner.join(timeout=60.0)
        assert not runner.is_alive(), "fabric wedged after worker SIGKILL"
        results = box["results"]
        assert all(r.ok for r in results)
        assert canonical_json([r.value for r in results]) == canonical_json(
            serial.values
        )

    def test_coordinator_restart_completes_without_recompute(self, tmp_path):
        jobs = _grid(12)
        serial = run_sweep(jobs)
        queue = WorkQueue(tmp_path / "q")
        first = Coordinator(queue, num_workers=2)
        first.enqueue(jobs)
        queue.seal()
        # Stage partial progress, then "crash" (first is simply dropped:
        # it holds no state the directory doesn't).
        settled = worker_loop(str(queue.root), worker_id="pre-crash",
                              max_jobs=5)
        assert settled == 5
        before = {
            p.name: (p.stat().st_mtime_ns, p.read_bytes())
            for p in queue.results_dir.iterdir()
        }
        assert len(before) == 5

        second = Coordinator(WorkQueue(tmp_path / "q"), num_workers=2)
        results = second.run(jobs)
        assert all(r.ok for r in results)
        assert canonical_json([r.value for r in results]) == canonical_json(
            serial.values
        )
        after = {
            p.name: (p.stat().st_mtime_ns, p.read_bytes())
            for p in queue.results_dir.iterdir()
        }
        assert len(after) == 12
        for name, stamp in before.items():
            assert after[name] == stamp, f"settled cell {name} was recomputed"

    def test_inline_drain_when_no_workers_available(self, tmp_path):
        jobs = _grid(4)
        queue = WorkQueue(tmp_path / "q")
        coordinator = Coordinator(queue, num_workers=1, respawn_budget=0)
        coordinator.enqueue(jobs)
        queue.seal()
        # No spawn(): zero workers and a spent respawn budget must
        # degrade to inline execution rather than wedging.
        assert coordinator.wait(jobs) is True
        assert coordinator.inline_cells == len(jobs)
        assert queue.unsettled() == 0
        values = [queue.result(j.job_hash)["value"] for j in jobs]
        assert values == [double_job(j.spec) for j in jobs]


class TestStandaloneWorker:
    def test_module_entry_point_drains_a_shared_queue(self, tmp_path):
        """``python -m repro.fabric.worker`` -- what a worker on another
        host runs -- needs nothing but the queue directory."""
        jobs = _grid(6)
        queue = WorkQueue(tmp_path / "q")
        for job in jobs:
            queue.add(job)
        queue.seal()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.fabric.worker", str(queue.root),
             "--worker-id", "remote"],
            env=env, timeout=120,
        )
        assert proc.returncode == 0
        assert queue.drained()
        results = [queue.result(j.job_hash) for j in jobs]
        assert [r["value"] for r in results] == [double_job(j.spec) for j in jobs]
        assert {r["worker"] for r in results} == {"remote"}


# -- snapshots ---------------------------------------------------------------


class TestSnapshot:
    def _cells(self, n=5):
        jobs = _grid(n)
        return {job.job_hash: double_job(job.spec) for job in jobs}, jobs

    def test_round_trip(self, tmp_path):
        cells, jobs = self._cells()
        path = tmp_path / "cat.snap"
        meta = write_snapshot(cells, path)
        assert meta["num_records"] == 5
        assert meta["salt"] == default_salt()
        with CatalogSnapshot(path) as snap:
            assert len(snap) == 5
            for job in jobs:
                hit, value = snap.get(job.job_hash)
                assert hit and value == double_job(job.spec)
            hit, value = snap.get("ab" * 32)
            assert not hit and value is None
            assert snap.stats()["hits"] == 5
            assert snap.stats()["misses"] == 1
            assert sorted(snap.hashes()) == sorted(cells)

    def test_build_from_sweep_results(self, tmp_path):
        jobs = _grid(4)
        sweep = run_sweep(jobs)
        path = tmp_path / "cat.snap"
        meta = build_snapshot(sweep.results, path)
        assert meta["fns"] == {"tests.test_fabric:double_job": 4}
        with CatalogSnapshot(path, expected_salt=default_salt()) as snap:
            assert all(job.job_hash in snap for job in jobs)

    def test_build_refuses_failed_cells(self, tmp_path):
        sweep = run_sweep([Job("tests.test_fabric:broken_job", {"x": 0})])
        with pytest.raises(SnapshotError, match="failed cells"):
            build_snapshot(sweep.results, tmp_path / "cat.snap")

    def test_corruption_is_rejected_at_open(self, tmp_path):
        cells, _ = self._cells()
        path = tmp_path / "cat.snap"
        write_snapshot(cells, path)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="checksum"):
            CatalogSnapshot(path)

    def test_truncation_is_rejected_at_open(self, tmp_path):
        cells, _ = self._cells()
        path = tmp_path / "cat.snap"
        write_snapshot(cells, path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(SnapshotError):
            CatalogSnapshot(path)

    def test_wrong_magic_is_rejected(self, tmp_path):
        path = tmp_path / "not.snap"
        path.write_bytes(b"definitely not a snapshot file, far too long ...")
        with pytest.raises(SnapshotError, match="magic"):
            CatalogSnapshot(path)

    def test_missing_file_is_a_snapshot_error(self, tmp_path):
        with pytest.raises(SnapshotError, match="cannot open"):
            CatalogSnapshot(tmp_path / "nope.snap")

    def test_salt_mismatch_is_rejected(self, tmp_path):
        cells, _ = self._cells()
        path = tmp_path / "cat.snap"
        write_snapshot(cells, path, salt="repro-0.0.0-h0")
        with pytest.raises(SnapshotError, match="code version"):
            CatalogSnapshot(path, expected_salt=default_salt())
        # ...but an explicit opt-out (no expected salt) still opens it.
        with CatalogSnapshot(path) as snap:
            assert len(snap) == 5

    def test_empty_snapshot(self, tmp_path):
        path = tmp_path / "empty.snap"
        write_snapshot({}, path)
        with CatalogSnapshot(path) as snap:
            assert len(snap) == 0
            assert snap.get("ab" * 32) == (False, None)

    def test_writes_are_deterministic(self, tmp_path, monkeypatch):
        cells, _ = self._cells()
        a, b = tmp_path / "a.snap", tmp_path / "b.snap"
        # 'created' varies; pin it so the comparison is meaningful.
        import repro.fabric.snapshot as snapmod

        monkeypatch.setattr(snapmod.time, "time", lambda: 0.0)
        write_snapshot(dict(reversed(list(cells.items()))), a)
        write_snapshot(cells, b)
        assert a.read_bytes() == b.read_bytes()
