"""The in-process executor, and the job-running core every executor shares.

:class:`SerialExecutor` runs jobs one at a time in this process.  The
other executor, :class:`repro.fabric.FabricExecutor`, runs the same
pure job functions on the same specs in worker processes, through the
same :func:`_execute_job`, so a parallel run is **bit-identical** to a
serial run by construction: every seed lives in the job spec, workers
hold no mutable state the result depends on, and results come back in
submission order no matter which worker finished first.

Both executors give each attempt an optional **timeout**, enforced with
``SIGALRM`` so a stuck cell cannot wedge the whole sweep, and retry
**transient failures** (timeouts and
:class:`~repro.harness.jobs.TransientJobError`) a bounded number of
times; deterministic errors are never retried -- the same spec would
fail the same way.

Failures are captured per-job on :class:`JobResult.error`; ``run`` never
raises for a failing job, so one bad cell cannot abort a 1000-cell
sweep.  ``run(jobs, on_result)`` passes each result to ``on_result``
once, as soon as the job settles: that is where
:func:`~repro.harness.sweep.run_sweep` stores it, so a sweep stopped part
way has stored every cell it reported.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.harness.jobs import Job, TransientJobError, canonical_json, resolve_job
from repro.obs import trace as obs

__all__ = ["JobResult", "SerialExecutor"]


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
    without ``SIGALRM`` (fabric workers run jobs on their main thread,
    where the alarm is available on POSIX).
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
    """Run one attempt of a job; return a tagged outcome.

    Tags: ``("ok", value)``, ``("transient", message)`` -- eligible for
    retry -- or ``("error", message)`` for deterministic failures.  A
    value :func:`canonical_json` refuses (a NaN, a set) is a
    deterministic failure: no store, snapshot or worker reply can hold
    it.
    """
    try:
        value = _with_timeout(lambda: resolve_job(fn)(spec), timeout)
    except TransientJobError as exc:
        return "transient", f"{type(exc).__name__}: {exc}"
    except Exception as exc:
        return "error", f"{type(exc).__name__}: {exc}"
    try:
        canonical_json(value)
    except (TypeError, ValueError) as exc:
        return "error", f"{type(exc).__name__}: job value is not canonical JSON: {exc}"
    return "ok", value


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
