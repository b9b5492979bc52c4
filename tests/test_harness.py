"""Tests for the sweep harness: jobs, executors, store, sweep front-end.

The load-bearing guarantees:

* a parallel sweep (forked fabric workers) is **bit-identical** to the
  serial sweep (seeds live in job specs, never in worker state);
* a repeated sweep is served from the result store without executing;
* a stale code-version salt or a corrupted cache file is a miss, never
  a wrong answer or a crash.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import (
    Job,
    ResultStore,
    SerialExecutor,
    TransientJobError,
    canonical_json,
    expand_grid,
    local_executor,
    resolve_job,
    run_sweep,
)

# ---------------------------------------------------------------------------
# Job functions for these tests (module-level so workers can import them).

EXECUTIONS: list[dict] = []


def counting_job(spec: dict) -> dict:
    """Pure in its output, but records each in-process execution."""
    EXECUTIONS.append(dict(spec))
    return {"doubled": 2 * spec["x"]}


def failing_job(spec: dict) -> dict:
    raise ValueError(f"bad cell {spec!r}")


def flaky_job(spec: dict) -> dict:
    """Fails transiently until a scratch file accumulates enough marks."""
    marker = spec["marker"]
    with open(marker, "a") as fh:
        fh.write("x")
    with open(marker) as fh:
        attempts = len(fh.read())
    if attempts < spec["fail_times"] + 1:
        raise TransientJobError(f"transient failure #{attempts}")
    return {"attempts": attempts}


def sleepy_job(spec: dict) -> dict:
    import time

    time.sleep(spec["seconds"])
    return {"slept": spec["seconds"]}


#: ``interrupting_job`` raises KeyboardInterrupt on call number "at".
INTERRUPT = {"at": 0, "calls": 0}


def interrupting_job(spec: dict) -> dict:
    """``measure_bandwidth``, except that one call is a Ctrl-C."""
    INTERRUPT["calls"] += 1
    if INTERRUPT["calls"] == INTERRUPT["at"]:
        raise KeyboardInterrupt
    return resolve_job("measure_bandwidth")(spec)


def paced_job(spec: dict) -> dict:
    """``measure_bandwidth`` after ``pause`` seconds, so a sweep of it
    can be stopped part way."""
    time.sleep(spec["pause"])
    return resolve_job("measure_bandwidth")(
        {k: v for k, v in spec.items() if k != "pause"}
    )


COUNTING = "tests.test_harness:counting_job"
FAILING = "tests.test_harness:failing_job"
FLAKY = "tests.test_harness:flaky_job"
SLEEPY = "tests.test_harness:sleepy_job"
INTERRUPTING = "tests.test_harness:interrupting_job"
PACED = "tests.test_harness:paced_job"


# ---------------------------------------------------------------------------
# Job model


class TestJobModel:
    def test_alias_resolves_to_canonical_path(self):
        job = Job("measure_bandwidth", {"family": "mesh_2"})
        assert job.fn == "repro.routing.measure:measure_bandwidth_job"
        assert resolve_job("measure_bandwidth") is resolve_job(job.fn)

    def test_unknown_alias_rejected(self):
        with pytest.raises(ValueError, match="unknown job"):
            Job("no_such_job", {})

    def test_hash_is_deterministic_and_order_insensitive(self):
        a = Job(COUNTING, {"x": 1, "y": 2})
        b = Job(COUNTING, {"y": 2, "x": 1})
        c = Job(COUNTING, {"x": 1, "y": 3})
        assert a.job_hash == b.job_hash
        assert a.job_hash != c.job_hash
        assert len(a.job_hash) == 64

    def test_container_types_normalized(self):
        assert Job(COUNTING, {"x": (1, 2)}).job_hash == Job(
            COUNTING, {"x": [1, 2]}
        ).job_hash

    def test_unserializable_spec_fails_fast(self):
        with pytest.raises(ValueError, match="JSON"):
            Job(COUNTING, {"x": object()})
        with pytest.raises(ValueError):
            Job(COUNTING, {"x": float("nan")})

    def test_expand_grid_cartesian_order(self):
        jobs = expand_grid(COUNTING, {"a": [1, 2], "b": [10, 20]}, {"x": 0})
        assert [(j.spec["a"], j.spec["b"]) for j in jobs] == [
            (1, 10), (1, 20), (2, 10), (2, 20),
        ]
        assert all(j.spec["x"] == 0 for j in jobs)

    def test_expand_grid_rejects_shadow_and_empty_axis(self):
        with pytest.raises(ValueError, match="shadow"):
            expand_grid(COUNTING, {"x": [1]}, {"x": 0})
        with pytest.raises(ValueError, match="empty"):
            expand_grid(COUNTING, {"x": []})


# ---------------------------------------------------------------------------
# Result store


class TestResultStore:
    def test_cache_hit_returns_without_executing(self, tmp_path):
        store = ResultStore(tmp_path, salt="v1")
        jobs = [Job(COUNTING, {"x": i}) for i in range(3)]
        EXECUTIONS.clear()

        first = run_sweep(jobs, store=store)
        assert first.ok and len(EXECUTIONS) == 3
        second = run_sweep(jobs, store=store)
        assert len(EXECUTIONS) == 3, "cache hits must not execute the job"
        assert second.values == first.values
        assert second.cache_hit_rate == 1.0
        assert store.stats.hits == 3 and store.stats.misses == 3

    def test_stale_code_version_salt_invalidates(self, tmp_path):
        job = Job(COUNTING, {"x": 7})
        old = ResultStore(tmp_path, salt="repro-0.9")
        old.put(job, {"doubled": 999})

        new = ResultStore(tmp_path, salt="repro-1.0")
        hit, value = new.get(job)
        assert not hit and value is None
        assert new.stats.misses == 1
        # The same salt still hits, so the old results were not destroyed.
        assert old.get(job) == (True, {"doubled": 999})
        # ...until an explicit purge evicts the foreign-salt cells.
        assert new.purge_stale() == 1
        assert old.get(job) == (False, None)

    def test_corrupted_cache_file_is_a_miss_not_a_crash(self, tmp_path):
        store = ResultStore(tmp_path, salt="v1")
        job = Job(COUNTING, {"x": 5})
        store.put(job, {"doubled": 10})
        store.path_for(job).write_text("{ not json !!")

        hit, value = store.get(job)
        assert not hit and value is None
        assert store.stats.evictions == 1
        assert not store.path_for(job).exists(), "bad file must be evicted"
        # A sweep over the corrupted cell recomputes and re-caches it.
        result = run_sweep([job], store=store)
        assert result.values == [{"doubled": 10}]
        assert store.get(job) == (True, {"doubled": 10})

    def test_payload_hash_mismatch_is_a_miss(self, tmp_path):
        store = ResultStore(tmp_path, salt="v1")
        a, b = Job(COUNTING, {"x": 1}), Job(COUNTING, {"x": 2})
        store.put(a, {"doubled": 2})
        store.path_for(b).parent.mkdir(parents=True, exist_ok=True)
        store.path_for(b).write_text(store.path_for(a).read_text())

        assert store.get(b) == (False, None)
        assert store.stats.evictions == 1

    def test_len_counts_current_salt_only(self, tmp_path):
        store = ResultStore(tmp_path, salt="v1")
        store.put(Job(COUNTING, {"x": 1}), {"doubled": 2})
        other = ResultStore(tmp_path, salt="v2")
        other.put(Job(COUNTING, {"x": 1}), {"doubled": 2})
        assert len(store) == 1 and len(other) == 1


# ---------------------------------------------------------------------------
# Executors


class TestExecutors:
    def test_failures_are_captured_not_raised(self):
        results = SerialExecutor().run([Job(FAILING, {"x": 1})])
        assert not results[0].ok
        assert "ValueError" in results[0].error

    def test_failed_jobs_are_not_cached(self, tmp_path):
        store = ResultStore(tmp_path, salt="v1")
        sweep = run_sweep([Job(FAILING, {"x": 1})], store=store)
        assert sweep.num_failed == 1
        assert len(store) == 0

    def test_transient_failures_retried_serial(self, tmp_path):
        job = Job(FLAKY, {"marker": str(tmp_path / "m1"), "fail_times": 2})
        results = SerialExecutor(retries=2).run([job])
        assert results[0].ok
        assert results[0].attempts == 3

    def test_transient_retries_bounded(self, tmp_path):
        job = Job(FLAKY, {"marker": str(tmp_path / "m2"), "fail_times": 5})
        results = SerialExecutor(retries=1).run([job])
        assert not results[0].ok
        assert results[0].attempts == 2
        assert "TransientJobError" in results[0].error

    def test_transient_failures_retried_parallel(self, tmp_path, two_cpus):
        job = Job(FLAKY, {"marker": str(tmp_path / "m3"), "fail_times": 1})
        sweep = run_sweep([job, Job(COUNTING, {"x": 1})], executor="parallel")
        results = sweep.results
        assert sweep.executor == "fabric[2]"
        assert all(r.ok for r in results)
        assert results[0].value == {"attempts": 2}
        assert results[0].attempts == 2
        assert results[1].value == {"doubled": 2}

    def test_per_job_timeout_is_transient(self):
        results = SerialExecutor(timeout=0.05, retries=0).run(
            [Job(SLEEPY, {"seconds": 5.0}), Job(COUNTING, {"x": 3})]
        )
        assert not results[0].ok and "timed out" in results[0].error
        assert results[1].ok, "a stuck cell must not wedge the sweep"

    def test_max_workers_one_degrades_to_serial(self, monkeypatch, tmp_path):
        """One worker is the in-process path: ``executor="parallel"`` on
        one CPU, ``local_executor(1)`` and ``repro sweep --workers 1``."""
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        jobs = [Job(COUNTING, {"x": i}) for i in range(3)]
        sweep = run_sweep(jobs, executor="parallel")
        assert sweep.executor == "serial"
        assert [r.worker for r in sweep.results] == ["serial"] * 3
        assert [r.value["doubled"] for r in sweep.results] == [0, 2, 4]
        assert isinstance(local_executor(1), SerialExecutor)

        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", COUNTING, "--axis", "x=1,2", "--workers", "1",
             "--quiet", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["executor"] == "serial"
        assert [r["worker"] for r in payload["results"]] == ["serial"] * 2

    def test_parallel_seconds_exclude_pool_queue_wait(self, two_cpus):
        """A parallel job's ``seconds`` is its run in the worker, not its
        wait in the queue: two workers cannot be busy for more than
        twice the sweep's wall time."""
        jobs = expand_grid(SLEEPY, {"seconds": [0.04, 0.05, 0.06, 0.07], "copy": [0, 1]})
        sweep = run_sweep(jobs, executor="parallel")
        assert sweep.ok, sweep.errors()
        assert sweep.executor == "fabric[2]"
        assert sum(r.seconds for r in sweep.results) <= 2 * sweep.wall_seconds


# ---------------------------------------------------------------------------
# The acceptance sweep: parallel == serial, second run >= 95% cached.

ACCEPTANCE_AXES = {
    "family": ["linear_array", "tree", "mesh_2", "de_bruijn"],
    "size": [16, 32, 64],
    "seed": [0, 1, 2, 3],
}


class TestAcceptanceSweep:
    def test_parallel_sweep_bit_identical_and_cached(self, tmp_path, two_cpus):
        jobs = expand_grid("measure_bandwidth", ACCEPTANCE_AXES)
        assert len(jobs) == 48

        serial = run_sweep(jobs, executor=SerialExecutor())
        assert serial.ok, serial.errors()

        parallel = run_sweep(
            jobs,
            executor="parallel",
            store=ResultStore(tmp_path, salt="acceptance"),
        )
        assert parallel.ok, parallel.errors()
        assert parallel.executor == "fabric[2]"
        # Bit-identical, not approximately equal: compare canonical JSON.
        assert canonical_json(parallel.values) == canonical_json(serial.values)

        again = run_sweep(
            jobs,
            executor="parallel",
            store=ResultStore(tmp_path, salt="acceptance"),
        )
        assert again.cache_hit_rate >= 0.95
        assert canonical_json(again.values) == canonical_json(serial.values)


# ---------------------------------------------------------------------------
# Sweep front-end and CLI


class TestSweepFrontEnd:
    def test_results_in_grid_order_with_progress(self):
        jobs = expand_grid(COUNTING, {"x": [3, 1, 2]})
        seen = []
        sweep = run_sweep(jobs, progress=seen.append)
        assert [r.value["doubled"] for r in sweep.results] == [6, 2, 4]
        assert len(seen) == 3

    def test_value_by_spec(self):
        sweep = run_sweep(expand_grid(COUNTING, {"x": [1, 2]}))
        assert sweep.value_by_spec(x=2) == {"doubled": 4}
        with pytest.raises(KeyError):
            sweep.value_by_spec(x=99)

    def test_as_dict_is_json_serializable(self, tmp_path):
        sweep = run_sweep(
            expand_grid(COUNTING, {"x": [1]}),
            store=ResultStore(tmp_path, salt="v1"),
        )
        payload = json.loads(json.dumps(sweep.as_dict()))
        assert payload["num_jobs"] == 1
        assert payload["store"]["puts"] == 1

    def test_cli_sweep_catalog_cell(self, capsys, tmp_path):
        out = tmp_path / "sweep.json"
        code = main(
            [
                "sweep",
                "catalog_cell",
                "--axis", "guest=de_bruijn",
                "--axis", "host=mesh_2,tree",
                "--quiet",
                "--out", str(out),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "lg(n)^2" in printed
        payload = json.loads(out.read_text())
        assert payload["num_jobs"] == 2
        assert payload["results"][0]["value"]["expr"] == "lg(n)^2"

    def test_cli_sweep_requires_axes(self):
        with pytest.raises(SystemExit):
            main(["sweep", "catalog_cell"])

    def test_cli_sweep_reports_failures(self, capsys):
        code = main(
            ["sweep", COUNTING.replace("counting", "failing"),
             "--axis", "x=1", "--quiet"]
        )
        assert code == 1
        assert "ERROR" in capsys.readouterr().out

    @pytest.mark.parametrize("retries,ok", [(2, True), (1, False)])
    def test_cli_sweep_workers_retry_on_the_fabric(self, tmp_path, retries, ok):
        """``--workers 2`` runs on the fabric; ``--retries R`` allows
        R + 1 attempts, so a cell that fails twice needs ``--retries 2``."""
        out = tmp_path / "sweep.json"
        code = main(
            ["sweep", FLAKY, "--axis", f"marker={tmp_path / 'marks'}",
             "--axis", "fail_times=2", "--workers", "2",
             "--retries", str(retries), "--quiet", "--out", str(out)]
        )
        assert code == (0 if ok else 1)
        payload = json.loads(out.read_text())
        assert payload["executor"] == "fabric[2]"
        (cell,) = payload["results"]
        assert cell["worker"].startswith("fabric:")
        assert cell["attempts"] == retries + 1
        assert (cell["error"] is None) == ok


# ---------------------------------------------------------------------------
# Interrupted sweeps resume from the store alone

#: The grid both interrupted sweeps run, as CLI flags and as axes.
GRID_FLAGS = ["--families", "linear_array", "tree", "--sizes", "16", "32",
              "--seeds", "3"]
GRID_AXES = {"family": ["linear_array", "tree"], "size": [16, 32],
             "seed": [0, 1, 2]}


def _serial_values() -> str:
    """The grid's values from an uninterrupted in-process sweep."""
    sweep = run_sweep(expand_grid("measure_bandwidth", GRID_AXES))
    assert sweep.ok
    return canonical_json(sweep.values)


def _rerun(fn: str, store: Path, out: Path, extra: list[str]) -> dict:
    """Rerun the grid against ``store``; returns the ``--out`` record."""
    code = main(["sweep", fn, *GRID_FLAGS, *extra, "--store", str(store),
                 "--quiet", "--out", str(out)])
    assert code == 0
    return json.loads(out.read_text())


def _subprocess_env(tmp_path: Path) -> dict:
    """This interpreter's import path (so ``tests.*`` jobs resolve) and
    a private TMPDIR, which a sweep must leave empty."""
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    return dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(p for p in sys.path if p),
        TMPDIR=str(scratch),
    )


def _children(pid: int) -> list[int]:
    """Live processes whose parent is ``pid`` (Linux ``/proc``)."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit() and _stat(int(entry))[1] == pid:
            found.append(int(entry))
    return found


def _stat(pid: int) -> tuple[str, int]:
    """``(state, ppid)`` of ``pid``; ``("X", 0)`` once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return "X", 0
    fields = text.rpartition(")")[2].split()
    return fields[0], int(fields[1])


def _read_progress(proc: subprocess.Popen, count: int) -> list[str]:
    """The first ``count`` progress lines ``proc`` writes to stderr."""
    lines = []
    while len(lines) < count:
        line = proc.stderr.readline()
        assert line, f"sweep ended after {lines!r}"
        if line.startswith("["):
            lines.append(line)
    return lines


def _sweep_killed_after(argv: list[str], lines: int, tmp_path: Path):
    """Run ``repro sweep`` and SIGKILL it once it has printed ``lines``
    progress lines.  Returns those lines and the pids of its workers."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "sweep", *argv],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=_subprocess_env(tmp_path),
    )
    try:
        printed = _read_progress(proc, lines)
        workers = _children(proc.pid)
    finally:
        proc.kill()
        proc.wait(timeout=30)
        proc.stderr.close()
    return printed, workers


def _lingering(pids: list[int], seconds: float) -> list[int]:
    """The ``pids`` still running after ``seconds``; they are killed."""
    deadline = time.monotonic() + seconds
    while time.monotonic() < deadline:
        if all(_stat(pid)[0] in "XZ" for pid in pids):
            return []
        time.sleep(0.05)
    left = [pid for pid in pids if _stat(pid)[0] not in "XZ"]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    return left


class TestInterruptedSweep:
    def test_serial_ctrl_c_keeps_settled_cells(self, tmp_path, capsys, monkeypatch):
        """The 4th cell is a Ctrl-C: ``main`` prints one line and exits
        130, the 3 cells before it are in the store, and the rerun
        serves them and matches an uninterrupted sweep bit for bit."""
        store = tmp_path / "store"
        monkeypatch.setitem(INTERRUPT, "at", 4)
        monkeypatch.setitem(INTERRUPT, "calls", 0)
        try:
            code = main(["sweep", INTERRUPTING, *GRID_FLAGS, "--store", str(store)])
        except KeyboardInterrupt:
            pytest.fail("the Ctrl-C escaped main")
        assert code == 130
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "error: interrupted"
        assert [line[:6] for line in err[:-1]] == ["[ 1/12", "[ 2/12", "[ 3/12"]
        assert len(ResultStore(store)) == 3

        monkeypatch.setitem(INTERRUPT, "at", 0)
        record = _rerun(INTERRUPTING, store, tmp_path / "rerun.json", [])
        assert record["num_cached"] == 3
        assert [r["cached"] for r in record["results"][:4]] == [True] * 3 + [False]
        values = [r["value"] for r in record["results"]]
        assert canonical_json(values) == _serial_values()

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_killed_fabric_sweep_keeps_settled_cells(self, tmp_path, monkeypatch):
        """SIGKILL a ``--workers 2`` sweep after its 3rd progress line:
        every cell that printed is in the store, and the rerun serves
        them and matches an uninterrupted serial sweep bit for bit.
        Neither run leaves anything in its TMPDIR."""
        store = tmp_path / "store"
        pace = ["--set", "pause=0.2", "--workers", "2"]
        printed, workers = _sweep_killed_after(
            [PACED, *GRID_FLAGS, *pace, "--store", str(store)], 3, tmp_path
        )
        assert not _lingering(workers, 5.0), "workers outlived their coordinator"
        jobs = {
            job.label(): job
            for job in expand_grid(PACED, GRID_AXES, {"pause": 0.2})
        }
        stored = ResultStore(store)
        for line in printed:
            label = line.split("] ", 1)[1].rsplit("  ", 1)[0]
            assert stored.get(jobs[label])[0], f"{label} printed, not stored"
        assert len(stored) < len(jobs), "the sweep finished before the kill"
        scratch = tmp_path / "tmp"
        assert not any(scratch.iterdir()), "the killed sweep left a file"

        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        record = _rerun(PACED, store, tmp_path / "rerun.json", pace)
        assert record["num_cached"] >= len(printed)
        values = [r["value"] for r in record["results"]]
        assert canonical_json(values) == _serial_values()
        assert not any(scratch.iterdir()), "the rerun left a file"

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
    def test_workers_stop_when_the_coordinator_dies(self, tmp_path):
        """Killed after its first 1-second cell, with ~7 s of cells left,
        the coordinator's two workers finish the cell they hold and
        exit: each sees its pipe close, although cells are left."""
        _, workers = _sweep_killed_after(
            [SLEEPY, "--axis", "i=" + ",".join(map(str, range(16))),
             "--set", "seconds=1", "--workers", "2"], 1, tmp_path,
        )
        assert len(workers) == 2
        assert not _lingering(workers, 5.0), "workers outlived their coordinator"

    def test_ctrl_c_on_a_fabric_sweep_prints_one_line(self, tmp_path):
        """A terminal Ctrl-C signals the whole process group: the forked
        workers ignore it, the coordinator stops them and ``main`` prints
        one line, with no worker tracebacks."""
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "sweep", PACED, *GRID_FLAGS,
             "--set", "pause=0.2", "--workers", "2"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env=_subprocess_env(tmp_path), start_new_session=True,
        )
        try:
            _read_progress(proc, 1)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 130
        rest = [line for line in err.splitlines() if not line.startswith("[")]
        assert rest == ["error: interrupted"], err
        assert not any((tmp_path / "tmp").iterdir()), "a file left behind"
