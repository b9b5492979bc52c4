"""Tests for the sweep fabric: the forked worker pool, its failure
modes, and catalog snapshots.

The failure-mode tests stage real crashes -- ``SIGKILL`` of a forked
worker mid-cell, cells that kill every worker that runs them -- and
assert the fabric's contracts:

* **bit-identity**: a fabric sweep equals a serial sweep of the same
  grid, byte for byte, no matter what died along the way;
* **a death costs a retry, not a timeout**: the pool sees a dead worker
  at once as end-of-file on its pipe, retries its cell and respawns it;
* **nothing on disk**: the pool writes nothing under ``TMPDIR``.

Job functions live at module level so the forked workers can resolve
them as ``tests.test_fabric:<name>``.
"""

from __future__ import annotations

import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest

from repro.fabric import (
    CatalogSnapshot,
    FabricExecutor,
    SnapshotError,
    build_snapshot,
    write_snapshot,
)
from repro.fabric.pool import _Run
from repro.harness import (
    Job,
    ResultStore,
    SerialExecutor,
    TransientJobError,
    canonical_json,
    default_salt,
    run_sweep,
)
from repro.obs import MemorySink
from repro.obs import trace as obs

# -- job functions (resolved by the forked workers) --------------------------


def double_job(spec):
    """Instant deterministic cell: doubles ``x``."""
    return {"x": spec["x"], "doubled": spec["x"] * 2}


def sleepy_job(spec):
    """Deterministic cell that holds its worker for ``sleep`` seconds,
    after leaving the marker ``<x>-<pid>`` in ``scratch`` (when given)."""
    if "scratch" in spec:
        Path(spec["scratch"], f"{spec['x']}-{os.getpid()}").touch()
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


def nan_job(spec):
    """Returns a value canonical JSON refuses."""
    return {"x": math.nan}


#: The process that imported this module.
_IMPORTED_BY = os.getpid()


def importer_pid_job(spec):
    """Which process imported this module, and which one runs the cell."""
    return {"imported_by": _IMPORTED_BY, "runs_in": os.getpid()}


def worker_killing_job(spec):
    """Kills any process but ``spec["home"]`` that runs it: a cell that
    takes its fabric worker down, every attempt, but runs inline."""
    if os.getpid() != spec["home"]:
        os._exit(3)
    return double_job(spec)


def _grid(n, fn="tests.test_fabric:double_job"):
    return [Job(fn, {"x": i}) for i in range(n)]


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
        """Each worker reply is read once, and each cell streamed once:
        the results returned are the objects streamed."""
        reads = []
        record = _Run.record

        def counted(run, index, *reply):
            reads.append(index)
            return record(run, index, *reply)

        monkeypatch.setattr(_Run, "record", counted)
        jobs = _grid(20)
        streamed = []
        results = FabricExecutor(num_workers=2).run(jobs, on_result=streamed.append)
        assert sorted(reads) == list(range(20))
        assert sorted(r.job.job_hash for r in streamed) == sorted(
            job.job_hash for job in jobs
        )
        assert [r.job for r in results] == jobs
        by_hash = {r.job.job_hash: r for r in streamed}
        assert all(by_hash[r.job.job_hash] is r for r in results)

    @pytest.mark.parametrize("executor", ["serial", "fabric"])
    def test_a_repeated_job_runs_and_streams_per_position(self, executor):
        """Cells are tracked by position, as ``SerialExecutor`` tracks
        them: a grid holding one job twice returns and streams it twice."""
        jobs = [Job("measure_bandwidth", {"family": "ring", "size": size})
                for size in (8, 8, 10)]
        run = SerialExecutor() if executor == "serial" else FabricExecutor(2)
        streamed = []
        results = run.run(jobs, on_result=streamed.append)
        assert len(streamed) == 3
        assert sorted(map(id, streamed)) == sorted(map(id, results))
        assert results[0] is not results[1]
        assert [r.job for r in results] == jobs
        assert results[0].value == results[1].value != results[2].value

    def test_a_sweep_writes_nothing_under_tmpdir(self, tmp_path, monkeypatch):
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        seen = []

        def look(result):
            seen.append(sorted(p.name for p in scratch.iterdir()))

        results = FabricExecutor(num_workers=2).run(_grid(4), on_result=look)
        assert all(r.ok for r in results)
        assert seen == [[]] * 4
        assert list(scratch.iterdir()) == []

    def test_a_value_canonical_json_refuses_fails_at_once(self, tmp_path):
        """One message on every executor and with a store, no retry, no
        worker death, and nothing stored."""
        jobs = [Job("tests.test_fabric:nan_job", {"x": 0}), *_grid(1)]
        t0 = time.monotonic()
        serial = run_sweep(jobs)
        fabric = run_sweep(jobs, executor=FabricExecutor(num_workers=2))
        store = ResultStore(tmp_path / "store")
        stored = run_sweep(jobs, store=store)
        assert time.monotonic() - t0 < 10.0
        errors = {sweep.results[0].error for sweep in (serial, fabric, stored)}
        assert len(errors) == 1
        (error,) = errors
        assert error.startswith("ValueError: job value is not canonical JSON: ")
        assert [sweep.results[0].attempts for sweep in (serial, fabric, stored)] == [1] * 3
        assert all(sweep.results[1].ok for sweep in (serial, fabric, stored))
        assert len(store) == 1

    def test_transient_failure_retries_to_success(self, tmp_path):
        jobs = [
            Job(
                "tests.test_fabric:flaky_once_job",
                {"x": i, "scratch": str(tmp_path)},
            )
            for i in range(3)
        ]
        sweep = run_sweep(jobs, executor=FabricExecutor(num_workers=1))
        assert sweep.ok
        assert all(r.attempts == 2 for r in sweep.results)

    def test_attempt_budget_exhaustion_fails_terminally(self):
        jobs = [Job("tests.test_fabric:always_transient_job", {"x": 0})]
        sweep = run_sweep(
            jobs, executor=FabricExecutor(num_workers=1, max_attempts=2)
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

SLEEPY = "tests.test_fabric:sleepy_job"
KILLER = "tests.test_fabric:worker_killing_job"


def _sleepy_grid(scratch: Path | None = None, sleep: float = 0.3) -> list[Job]:
    """Eight cells of ``sleep`` seconds; with ``scratch``, each marks
    where it runs.  Their values depend on neither."""
    extra = {} if scratch is None else {"scratch": str(scratch)}
    return [Job(SLEEPY, {"x": i, "sleep": sleep, **extra}) for i in range(8)]


def _kill_a_worker_mid_cell(executor: FabricExecutor, scratch: Path):
    """Run :func:`_sleepy_grid` on ``executor`` in a thread and SIGKILL
    the worker that starts the first cell.  Returns the results, that
    cell's position and the seconds from the kill to the end of the run."""
    box = {}
    runner = threading.Thread(
        target=lambda: box.setdefault("results", executor.run(_sleepy_grid(scratch)))
    )
    runner.start()
    deadline = time.monotonic() + 30.0
    markers = []
    while not markers and time.monotonic() < deadline:
        markers = sorted(p.name for p in scratch.iterdir())
        time.sleep(0.01)
    assert markers, "no worker ever started a cell"
    cell, pid = map(int, markers[0].split("-"))
    os.kill(pid, signal.SIGKILL)
    killed = time.monotonic()
    runner.join(timeout=60.0)
    assert not runner.is_alive(), "fabric wedged after a worker SIGKILL"
    return box["results"], cell, time.monotonic() - killed


class TestFabricCrashes:
    def test_worker_sigkill_mid_job_lease_requeues_bit_identical(self, tmp_path):
        """The killed worker's cell is re-queued at once and the worker
        respawned; the sweep equals a serial one."""
        serial = run_sweep(_sleepy_grid(sleep=0.0))
        executor = FabricExecutor(num_workers=2)
        sink = MemorySink()
        with obs.tracing(sink=sink):
            results, cell, _ = _kill_a_worker_mid_cell(executor, tmp_path)
        assert all(r.ok for r in results)
        assert canonical_json([r.value for r in results]) == canonical_json(
            serial.values
        )
        assert (executor.requeues, executor.respawns, executor.inline_cells) == (1, 1, 0)
        events = [e for e in sink.events if e.get("type") == "event"]
        exited = [e for e in events if e["name"] == "fabric.worker_exited"]
        assert [e["returncode"] for e in exited] == [-signal.SIGKILL]
        requeued = [e for e in events if e["name"] == "fabric.requeue"]
        assert requeued == [
            dict(requeued[0], hash=results[cell].job.job_hash[:12],
                 disposition="requeued")
        ]
        spawned = [e for e in events if e["name"] == "fabric.worker_spawned"]
        assert len(spawned) == 3

    def test_a_sigkilled_worker_costs_a_retry_not_a_lease_ttl(self, tmp_path):
        """With default settings the sweep ends within seconds of the
        kill, and the killed cell took two attempts."""
        results, cell, after = _kill_a_worker_mid_cell(FabricExecutor(2), tmp_path)
        assert after < 5.0
        assert results[cell].ok and results[cell].attempts == 2
        assert canonical_json([r.value for r in results]) == canonical_json(
            run_sweep(_sleepy_grid(sleep=0.0)).values
        )

    def test_inline_drain_when_no_workers_available(self):
        """Cells that kill every worker: once the respawn budget
        (``num_workers``) is spent, the rest run in this process."""
        jobs = [Job(KILLER, {"x": i, "home": os.getpid()}) for i in range(4)]
        executor = FabricExecutor(num_workers=1)
        results = executor.run(jobs)
        assert [r.value for r in results] == [double_job(j.spec) for j in jobs]
        assert (executor.requeues, executor.respawns, executor.inline_cells) == (2, 1, 4)
        assert [r.attempts for r in results] == [3, 1, 1, 1]
        assert {r.worker for r in results} == {"fabric:inline"}

    def test_a_cell_that_kills_every_worker_fails_after_max_attempts(self):
        executor = FabricExecutor(num_workers=2, max_attempts=2)
        (result,) = executor.run([Job(KILLER, {"x": 0, "home": -1})])
        assert result.error == "worker w2 died (exit code 3) on attempt 2"
        assert result.attempts == 2
        assert (executor.requeues, executor.respawns, executor.inline_cells) == (1, 1, 0)


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
