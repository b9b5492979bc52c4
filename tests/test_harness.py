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


COUNTING = "tests.test_harness:counting_job"
FAILING = "tests.test_harness:failing_job"
FLAKY = "tests.test_harness:flaky_job"
SLEEPY = "tests.test_harness:sleepy_job"


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
