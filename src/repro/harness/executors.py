"""Serial and process-parallel job executors.

Both executors run the same pure job functions on the same specs, so a
parallel run is **bit-identical** to a serial run by construction: every
seed lives in the job spec, worker processes hold no mutable state the
result depends on, and results are returned in submission order no
matter which worker finished first.

:class:`ParallelExecutor` adds, on top of
:class:`~concurrent.futures.ProcessPoolExecutor`:

* a per-job **timeout**, enforced inside the worker with ``SIGALRM`` so
  a stuck cell cannot wedge the whole sweep;
* **bounded retries** for transient failures (timeouts and
  :class:`~repro.harness.jobs.TransientJobError`); deterministic errors
  are never retried -- the same spec would fail the same way;
* **graceful degradation**: ``max_workers=1`` short-circuits to the
  serial path, and if the pool dies mid-sweep (a worker segfaults or is
  OOM-killed) the unfinished jobs are re-run serially in-process rather
  than lost.

Failures are captured per-job on :class:`JobResult.error`; ``run`` never
raises for a failing job, so one bad cell cannot abort a 1000-cell
sweep.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.harness.jobs import Job, JobError, TransientJobError, resolve_job
from repro.obs import trace as obs

__all__ = ["JobResult", "ParallelExecutor", "SerialExecutor"]


@dataclass
class JobResult:
    """Outcome of one job: a value or an error, plus execution metadata."""

    job: Job
    value: Any = None
    error: str | None = None
    seconds: float = 0.0
    attempts: int = 1
    cached: bool = False
    worker: str = "serial"
    timeouts: int = 0

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def retries(self) -> int:
        """Re-executions after the first attempt (0 for cache hits)."""
        return max(0, self.attempts - 1)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready record of the job, its outcome, and its timing."""
        return {
            "fn": self.job.fn,
            "spec": self.job.spec,
            "hash": self.job.job_hash,
            "value": self.value,
            "error": self.error,
            "seconds": round(self.seconds, 6),
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "cached": self.cached,
            "worker": self.worker,
        }


def _is_timeout(message: str) -> bool:
    """Whether a transient failure payload is the SIGALRM deadline."""
    return "timed out" in message


def _job_event(name: str, job: Job, **fields: Any) -> None:
    """Emit one job-lifecycle event (no-op unless tracing is on)."""
    tracer = obs.get_tracer()
    if tracer is not None:
        tracer.event(name, fn=job.fn, hash=job.job_hash[:12], **fields)


def _with_timeout(thunk: Callable[[], Any], timeout: float | None) -> Any:
    """Run ``thunk`` under a SIGALRM deadline; timeouts are transient.

    Falls back to no deadline off the main thread or on platforms
    without ``SIGALRM`` (the pool path always runs in worker main
    threads, where the alarm is available on POSIX).
    """
    if not timeout or not hasattr(signal, "SIGALRM"):
        return thunk()

    def _alarm(signum, frame):
        raise TransientJobError(f"job timed out after {timeout:.1f}s")

    try:
        previous = signal.signal(signal.SIGALRM, _alarm)
    except ValueError:  # not the main thread: no alarm available
        return thunk()
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        return thunk()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _execute_job(fn: str, spec: dict, timeout: float | None) -> tuple[str, Any]:
    """Worker entry point: run a job, return a picklable tagged outcome.

    Tags: ``("ok", value)``, ``("transient", message)`` -- eligible for
    retry -- or ``("error", message)`` for deterministic failures.
    """
    try:
        return "ok", _with_timeout(lambda: resolve_job(fn)(spec), timeout)
    except TransientJobError as exc:
        return "transient", f"{type(exc).__name__}: {exc}"
    except Exception as exc:
        return "error", f"{type(exc).__name__}: {exc}"


def _timed_execute_job(
    fn: str, spec: dict, timeout: float | None
) -> tuple[str, Any, float]:
    """Pool entry point: :func:`_execute_job` plus the seconds it ran in
    the worker, so a job's time leaves out its wait in the pool queue."""
    t0 = time.perf_counter()
    status, payload = _execute_job(fn, spec, timeout)
    return status, payload, time.perf_counter() - t0


def _execute_callable(
    fn: Callable[..., Any], args: tuple, timeout: float | None
) -> tuple[str, Any]:
    """Like :func:`_execute_job` for a bare picklable callable."""
    try:
        return "ok", _with_timeout(lambda: fn(*args), timeout)
    except TransientJobError as exc:
        return "transient", f"{type(exc).__name__}: {exc}"
    except Exception as exc:
        return "error", f"{type(exc).__name__}: {exc}"


class SerialExecutor:
    """Run jobs one at a time, in order, in this process."""

    def __init__(self, timeout: float | None = None, retries: int = 1) -> None:
        self.timeout = timeout
        self.retries = max(0, int(retries))

    def __repr__(self) -> str:
        return "SerialExecutor()"

    @property
    def description(self) -> str:
        return "serial"

    def run(
        self,
        jobs: Sequence[Job],
        on_result: Callable[[JobResult], None] | None = None,
    ) -> list[JobResult]:
        """Execute every job; failures are captured, never raised."""
        results = []
        for job in jobs:
            t0 = time.perf_counter()
            attempts = 0
            timeouts = 0
            with obs.span("harness.job", fn=job.fn, worker="serial") as sp:
                _job_event("job.started", job, worker="serial")
                while True:
                    attempts += 1
                    status, payload = _execute_job(job.fn, job.spec, self.timeout)
                    if status == "transient":
                        if _is_timeout(payload):
                            timeouts += 1
                            _job_event("job.timed_out", job, attempt=attempts)
                        if attempts <= self.retries:
                            _job_event("job.retried", job, attempt=attempts)
                            continue
                    break
                sp.set(status=status, attempts=attempts)
            result = JobResult(
                job=job,
                value=payload if status == "ok" else None,
                error=None if status == "ok" else payload,
                seconds=time.perf_counter() - t0,
                attempts=attempts,
                worker="serial",
                timeouts=timeouts,
            )
            _job_event(
                "job.finished", job, status=status, attempts=attempts,
                seconds=round(result.seconds, 6), worker="serial",
            )
            if on_result is not None:
                on_result(result)
            results.append(result)
        return results

    def run_callable(
        self, fn: Callable[..., Any], argtuples: Sequence[tuple]
    ) -> list[Any]:
        """Map ``fn`` over argument tuples; raises JobError on failure."""
        values = []
        for args in argtuples:
            attempts = 0
            while True:
                attempts += 1
                status, payload = _execute_callable(fn, tuple(args), self.timeout)
                if status != "transient" or attempts > self.retries:
                    break
            if status != "ok":
                raise JobError(f"{fn!r}{tuple(args)!r} failed: {payload}")
            values.append(payload)
        return values


class ParallelExecutor:
    """Fan jobs out over a process pool; degrade to serial when it can't.

    ``max_workers=1`` (or a single job) short-circuits to
    :class:`SerialExecutor`.  A dead pool sets ``self.degraded`` and the
    remaining jobs finish serially in-process.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        timeout: float | None = None,
        retries: int = 1,
        mp_context=None,
    ) -> None:
        self.max_workers = int(max_workers or os.cpu_count() or 1)
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.mp_context = mp_context
        self.degraded = False

    def __repr__(self) -> str:
        return f"ParallelExecutor(max_workers={self.max_workers})"

    @property
    def description(self) -> str:
        return f"parallel[{self.max_workers}]"

    def _serial(self) -> SerialExecutor:
        return SerialExecutor(timeout=self.timeout, retries=self.retries)

    def run(
        self,
        jobs: Sequence[Job],
        on_result: Callable[[JobResult], None] | None = None,
    ) -> list[JobResult]:
        """Execute every job across the pool; results in submission order."""
        jobs = list(jobs)
        if not jobs:
            return []
        if self.max_workers <= 1 or len(jobs) == 1:
            return self._serial().run(jobs, on_result)

        results: list[JobResult | None] = [None] * len(jobs)
        attempts = [0] * len(jobs)
        timeouts = [0] * len(jobs)
        seconds = [0.0] * len(jobs)  # in-worker time, summed over attempts
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.max_workers, len(jobs)),
                mp_context=self.mp_context,
            ) as pool:
                future_to_index: dict = {}

                def submit(i: int) -> None:
                    attempts[i] += 1
                    fut = pool.submit(
                        _timed_execute_job, jobs[i].fn, jobs[i].spec, self.timeout
                    )
                    future_to_index[fut] = i
                    _job_event(
                        "job.queued", jobs[i], worker="pool",
                        attempt=attempts[i],
                    )

                for i in range(len(jobs)):
                    submit(i)
                while future_to_index:
                    done, _ = wait(
                        list(future_to_index), return_when=FIRST_COMPLETED
                    )
                    for fut in done:
                        i = future_to_index.pop(fut)
                        exc = fut.exception()
                        if isinstance(exc, BrokenProcessPool):
                            raise exc
                        if exc is not None:
                            # e.g. the spec failed to pickle: deterministic
                            status, payload = "error", f"{type(exc).__name__}: {exc}"
                        else:
                            status, payload, took = fut.result()
                            seconds[i] += took
                        if status == "transient" and _is_timeout(payload):
                            timeouts[i] += 1
                            _job_event(
                                "job.timed_out", jobs[i], attempt=attempts[i]
                            )
                        if status == "transient" and attempts[i] <= self.retries:
                            _job_event(
                                "job.retried", jobs[i], attempt=attempts[i]
                            )
                            submit(i)
                            continue
                        results[i] = JobResult(
                            job=jobs[i],
                            value=payload if status == "ok" else None,
                            error=None if status == "ok" else payload,
                            seconds=seconds[i],
                            attempts=attempts[i],
                            worker="pool",
                            timeouts=timeouts[i],
                        )
                        _job_event(
                            "job.finished", jobs[i], status=status,
                            attempts=attempts[i],
                            seconds=round(seconds[i], 6), worker="pool",
                        )
                        if on_result is not None:
                            on_result(results[i])
        except (BrokenProcessPool, OSError):
            self.degraded = True

        unfinished = [i for i in range(len(jobs)) if results[i] is None]
        if unfinished:
            serial = self._serial().run([jobs[i] for i in unfinished], on_result)
            for i, result in zip(unfinished, serial):
                result.worker = "serial-fallback"
                results[i] = result
        return results  # type: ignore[return-value]

    def run_callable(
        self, fn: Callable[..., Any], argtuples: Sequence[tuple]
    ) -> list[Any]:
        """Map a picklable callable over argument tuples, in order.

        Unpicklable callables (lambdas, closures) degrade to the serial
        path -- same values, no pool.
        """
        argtuples = [tuple(a) for a in argtuples]
        if self.max_workers <= 1 or len(argtuples) <= 1:
            return self._serial().run_callable(fn, argtuples)
        try:
            pickle.dumps(fn)
        except Exception:
            self.degraded = True
            return self._serial().run_callable(fn, argtuples)

        outcomes: list[tuple[str, Any] | None] = [None] * len(argtuples)
        attempts = [0] * len(argtuples)
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.max_workers, len(argtuples)),
                mp_context=self.mp_context,
            ) as pool:
                future_to_index: dict = {}

                def submit(i: int) -> None:
                    attempts[i] += 1
                    fut = pool.submit(
                        _execute_callable, fn, argtuples[i], self.timeout
                    )
                    future_to_index[fut] = i

                for i in range(len(argtuples)):
                    submit(i)
                while future_to_index:
                    done, _ = wait(
                        list(future_to_index), return_when=FIRST_COMPLETED
                    )
                    for fut in done:
                        i = future_to_index.pop(fut)
                        exc = fut.exception()
                        if isinstance(exc, BrokenProcessPool):
                            raise exc
                        if exc is not None:
                            status, payload = "error", f"{type(exc).__name__}: {exc}"
                        else:
                            status, payload = fut.result()
                        if status == "transient" and attempts[i] <= self.retries:
                            submit(i)
                            continue
                        outcomes[i] = (status, payload)
        except (BrokenProcessPool, OSError):
            self.degraded = True

        values: list[Any] = [None] * len(argtuples)
        for i, outcome in enumerate(outcomes):
            if outcome is None:  # pool died before this cell finished
                values[i] = self._serial().run_callable(fn, [argtuples[i]])[0]
                continue
            status, payload = outcome
            if status != "ok":
                raise JobError(f"{fn!r}{argtuples[i]!r} failed: {payload}")
            values[i] = payload
        return values
