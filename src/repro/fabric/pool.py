"""The sweep fabric's executor: forked workers, one pipe each.

:class:`FabricExecutor` is the harness's parallel path
(``run_sweep(executor="parallel")``, ``repro sweep --workers N``).  Its
``run`` forks ``min(num_workers, cells)`` workers from the calling
process, the coordinator, each with its own pipe, hands every idle
worker the position of the next waiting cell and waits on all pipes at
once.  A worker runs the cell through
:func:`~repro.harness.executors._execute_job`, the core
:class:`~repro.harness.executors.SerialExecutor` runs, and answers with
the status, the seconds and the value as canonical JSON, so a fabric
sweep is bit-identical to a serial one.  Cells are tracked by position:
a grid that holds one job twice runs and streams it twice.

Nothing touches the disk.  A death shows as end-of-file on a pipe:

* a worker's, to the coordinator: the cell it held is retried at once
  while it has attempts left, the worker is respawned (at most
  ``num_workers`` times per run) while cells wait, and once no worker
  is left the remaining cells run inline, so a sweep finishes or fails
  cell by cell and never wedges;
* the coordinator's, to each worker: it finishes the cell it holds and
  exits.  For that end-of-file to arrive, each worker first closes the
  coordinator's ends of every pipe it inherited at the fork.

Workers ignore SIGINT: a terminal Ctrl-C reaches the whole process
group, and the coordinator, which reports it, terminates them.  They
are forked after :func:`~repro.harness.jobs.preload_jobs`, so each
starts with its cells' job modules imported and with the parent's
``sys.path`` (job functions defined in tests or scripts resolve).
"""

from __future__ import annotations

import contextlib
import json
import multiprocessing
import signal
import time
from collections import deque
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from multiprocessing.process import BaseProcess
from typing import Callable, Sequence

from repro.harness.executors import JobResult, _execute_job, _is_timeout
from repro.harness.jobs import Job, canonical_json, preload_jobs
from repro.obs import trace as obs

__all__ = ["FabricExecutor"]


def _attempt(job: Job, timeout: float | None) -> tuple[str, float, str]:
    """One attempt of ``job``: ``(status, seconds, payload)``, where the
    payload of an ``ok`` attempt is its value as canonical JSON."""
    t0 = time.perf_counter()
    status, payload = _execute_job(job.fn, job.spec, timeout)
    seconds = time.perf_counter() - t0
    return status, seconds, canonical_json(payload) if status == "ok" else payload


def _work(
    conn: Connection,
    jobs: list[Job],
    timeout: float | None,
    inherited: list[Connection],
) -> None:
    """A forked worker: answer each cell position the coordinator sends
    with one :func:`_attempt`, until its pipe closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for end in inherited:
        end.close()
    # End-of-file: the coordinator is done or gone.  A broken pipe: it
    # died while this worker ran a cell.  Either way, exit quietly.
    with contextlib.suppress(EOFError, OSError):
        while True:
            conn.send(_attempt(jobs[conn.recv()], timeout))


@dataclass
class _Worker:
    """One forked worker: its process, the coordinator's end of its
    pipe, and the position of the cell it holds (``None`` when idle)."""

    name: str
    proc: BaseProcess
    conn: Connection
    cell: int | None = None


class FabricExecutor:
    """Run jobs on up to ``num_workers`` forked workers.

    Each attempt gets ``timeout`` seconds.  A transient failure, or the
    death of the worker running it, is retried until the cell has had
    ``max_attempts`` attempts; a deterministic error is not retried.
    After :meth:`run`, ``requeues`` counts the cells retried because
    their worker died, ``respawns`` the workers forked to replace dead
    ones and ``inline_cells`` the cells run in this process.
    """

    def __init__(
        self,
        num_workers: int = 4,
        timeout: float | None = None,
        max_attempts: int = 3,
    ) -> None:
        self.num_workers = max(1, int(num_workers))
        self.timeout = timeout
        self.max_attempts = max(1, int(max_attempts))
        self.requeues = self.respawns = self.inline_cells = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FabricExecutor(num_workers={self.num_workers})"

    @property
    def description(self) -> str:
        """Executor tag recorded on :class:`SweepResult` (``fabric[N]``)."""
        return f"fabric[{self.num_workers}]"

    def run(
        self,
        jobs: Sequence[Job],
        on_result: Callable[[JobResult], None] | None = None,
    ) -> list[JobResult]:
        """Execute every job; results in job order, each also passed to
        ``on_result`` once, in completion order, as it settles."""
        jobs = list(jobs)
        self.requeues = self.respawns = self.inline_cells = 0
        if not jobs:
            return []
        with obs.span(
            "fabric.sweep", jobs=len(jobs), workers=self.num_workers
        ) as sp:
            preload_jobs(job.fn for job in jobs)
            results = _Run(self, jobs, on_result).run()
            sp.set(
                requeues=self.requeues, respawns=self.respawns,
                inline=self.inline_cells,
            )
        return results


class _Run:
    """One :meth:`FabricExecutor.run`: its workers, the cells waiting
    for one, and each cell's attempts, timeouts and seconds so far."""

    def __init__(
        self,
        executor: FabricExecutor,
        jobs: list[Job],
        on_result: Callable[[JobResult], None] | None,
    ) -> None:
        self.executor = executor
        self.jobs = jobs
        self.on_result = on_result
        self.waiting = deque(range(len(jobs)))
        self.attempts = [0] * len(jobs)
        self.timeouts = [0] * len(jobs)
        self.seconds = [0.0] * len(jobs)
        self.results: list[JobResult | None] = [None] * len(jobs)
        self.settled = 0
        self.workers: list[_Worker] = []
        self.spawned = 0

    def run(self) -> list[JobResult]:
        try:
            for _ in range(min(self.executor.num_workers, len(self.jobs))):
                self.spawn()
            while self.settled < len(self.jobs):
                if not self.workers:
                    self.drain_inline()
                    break
                self.dispatch()
                ready = wait([worker.conn for worker in self.workers])
                for worker in [w for w in self.workers if w.conn in ready]:
                    self.receive(worker)
        except BaseException:
            # Interrupted (Ctrl-C, or on_result raised): no cell is
            # coming back, so stop the workers now, then re-raise.
            self.stop(terminate=True)
            raise
        self.stop()
        return self.results  # type: ignore[return-value]

    def spawn(self) -> None:
        """Fork one worker with its own pipe."""
        self.spawned += 1
        name = f"w{self.spawned}"
        ours, theirs = multiprocessing.Pipe()
        inherited = [worker.conn for worker in self.workers] + [ours]
        proc = multiprocessing.get_context("fork").Process(
            target=_work,
            args=(theirs, self.jobs, self.executor.timeout, inherited),
            name=name,
            daemon=True,
        )
        proc.start()
        theirs.close()
        self.workers.append(_Worker(name, proc, ours))
        obs.event("fabric.worker_spawned", worker=name, pid=proc.pid)

    def dispatch(self) -> None:
        """Hand the next waiting cell to each idle worker."""
        for worker in self.workers:
            if worker.cell is not None or not self.waiting:
                continue
            index = self.waiting.popleft()
            try:
                worker.conn.send(index)
            except OSError:  # died idle; the wait reports its end-of-file
                self.waiting.appendleft(index)
                continue
            worker.cell = index
            self.attempts[index] += 1

    def receive(self, worker: _Worker) -> None:
        """Take ``worker``'s reply, or its death."""
        try:
            reply = worker.conn.recv()
        except (EOFError, OSError):
            self.lost(worker)
            return
        index, worker.cell = worker.cell, None
        self.record(index, worker.name, *reply)

    def record(
        self, index: int, worker: str, status: str, seconds: float, payload: str
    ) -> None:
        """Settle one attempt of cell ``index``, or queue it to retry."""
        self.seconds[index] += seconds
        if status == "transient":
            if _is_timeout(payload):
                self.timeouts[index] += 1
            if self.attempts[index] < self.executor.max_attempts:
                self.waiting.appendleft(index)
                return
        if status == "ok":
            self.settle(index, worker, value=json.loads(payload))
        else:
            self.settle(index, worker, error=payload)

    def settle(
        self, index: int, worker: str, value=None, error: str | None = None
    ) -> None:
        """Record cell ``index``'s final result and stream it."""
        result = self.results[index] = JobResult(
            job=self.jobs[index],
            value=value,
            error=error,
            seconds=self.seconds[index],
            attempts=self.attempts[index],
            worker=f"fabric:{worker}",
            timeouts=self.timeouts[index],
        )
        self.settled += 1
        if self.on_result is not None:
            self.on_result(result)

    def lost(self, worker: _Worker) -> None:
        """``worker`` died: retry its cell, and replace it while cells
        wait and the respawn budget lasts."""
        worker.conn.close()
        worker.proc.join()
        self.workers.remove(worker)
        code = worker.proc.exitcode
        obs.event("fabric.worker_exited", worker=worker.name, returncode=code)
        index = worker.cell
        if index is not None:
            retry = self.attempts[index] < self.executor.max_attempts
            obs.event(
                "fabric.requeue", hash=self.jobs[index].job_hash[:12],
                disposition="requeued" if retry else "failed",
            )
            if retry:
                self.executor.requeues += 1
                self.waiting.appendleft(index)
            else:
                self.settle(index, worker.name, error=(
                    f"worker {worker.name} died (exit code {code}) "
                    f"on attempt {self.attempts[index]}"
                ))
        if self.waiting and self.executor.respawns < self.executor.num_workers:
            self.executor.respawns += 1
            self.spawn()

    def drain_inline(self) -> None:
        """Last resort, once every worker is dead and the respawn budget
        is spent: run the remaining cells in this process."""
        self.executor.inline_cells = len(self.waiting)
        while self.waiting:
            index = self.waiting.popleft()
            self.attempts[index] += 1
            self.record(index, "inline", *_attempt(self.jobs[index], self.executor.timeout))

    def stop(self, terminate: bool = False) -> None:
        """Close every pipe, so idle workers exit, and reap the workers;
        ``terminate`` stops busy ones first."""
        for worker in self.workers:
            if terminate:
                worker.proc.terminate()
            worker.conn.close()
        for worker in self.workers:
            worker.proc.join()
        self.workers = []
