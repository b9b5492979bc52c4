"""Coordinator: owns the queue, leases cells to workers, survives crashes.

The coordinator is the only stateful-looking piece of the fabric, and
even its state is a mirage: everything lives in the
:class:`~repro.fabric.queue.WorkQueue` directory, so a coordinator that
dies mid-sweep is restarted by simply calling :meth:`Coordinator.run`
again with the same queue -- enqueueing is idempotent, settled cells
are never recomputed, and dangling leases from the previous life expire
and re-queue like any other lost lease.

Responsibilities per poll tick:

* **expire stale leases** (heartbeat older than ``lease_ttl``): the
  cell is re-queued with its attempt count intact, or terminally failed
  once ``max_attempts`` is spent;
* **reap dead workers** and respawn them while unsettled work remains
  (bounded by a respawn budget so a crash-looping job cannot fork-bomb);
* **stream results** to the caller's ``on_result`` callback in
  completion order, exactly like the in-process executors; each settled
  cell's result file is read once, when it is streamed.

Local workers are forked from the coordinator's process and run
:func:`~repro.fabric.worker.worker_loop` -- the loop
``python -m repro.fabric.worker`` runs on another host against a shared
queue directory -- so local and remote workers speak one protocol.  A
forked worker ignores SIGINT (a terminal Ctrl-C reaches the whole
process group, and the coordinator reports it) and stops claiming cells
once the coordinator that forked it is gone.
Forking skips the interpreter start, and each worker starts with its
cells' job modules imported: :meth:`Coordinator.run` resolves every
distinct job function before it forks, so the import is paid once here,
not once per worker.  The child inherits the parent's ``sys.path``, so
job functions defined in tests or scripts resolve.
If every worker dies and the respawn budget is spent, the coordinator
degrades to executing the remaining cells inline: a fabric sweep
finishes or fails per-cell, it never wedges.

:class:`FabricExecutor` adapts the coordinator to the executor protocol
(``run(jobs, on_result) -> list[JobResult]``), which is what lets
``run_sweep(executor="fabric")`` (and ``executor="parallel"``) reuse
every existing sweep feature -- store-backed resume, progress lines,
JSON output -- unchanged.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import shutil
import tempfile
import time
from multiprocessing.process import BaseProcess
from pathlib import Path
from typing import Callable, Sequence

from repro.harness.executors import JobResult
from repro.harness.jobs import Job, preload_jobs
from repro.obs import trace as obs

from repro.fabric.queue import QueueConfig, WorkQueue
from repro.fabric.worker import _execute_lease, worker_loop

__all__ = ["Coordinator", "FabricExecutor"]


class Coordinator:
    """Drives one queue to drained: spawn, heartbeat-police, collect."""

    def __init__(
        self,
        queue: WorkQueue | str | Path,
        num_workers: int = 4,
        config: QueueConfig | None = None,
        respawn_budget: int | None = None,
    ) -> None:
        if not isinstance(queue, WorkQueue):
            queue = WorkQueue(queue, config=config)
        self.queue = queue
        self.num_workers = max(1, int(num_workers))
        self.respawn_budget = (
            self.num_workers if respawn_budget is None else int(respawn_budget)
        )
        self.workers: list[BaseProcess] = []
        #: Every collected cell's result, by job hash (see :meth:`wait`).
        self.results: dict[str, JobResult] = {}
        self._spawned = 0
        self.respawns = 0
        self.requeues = 0
        self.inline_cells = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Coordinator({str(self.queue.root)!r}, "
            f"num_workers={self.num_workers})"
        )

    # -- lifecycle pieces (exposed so tests can stage crashes) ---------------

    def enqueue(self, jobs: Sequence[Job]) -> int:
        """Add every job not already known to the queue; returns #added."""
        added = 0
        for job in jobs:
            if self.queue.add(job):
                added += 1
        obs.event(
            "fabric.enqueued", jobs=len(jobs), added=added,
            queue=str(self.queue.root),
        )
        return added

    def spawn_worker(self) -> BaseProcess:
        """Fork one :func:`worker_loop` process against the queue."""
        self._spawned += 1
        worker_id = f"w{self._spawned}"
        # fork, not spawn: the child starts with every module this
        # process imported, the job functions' included (see run()).
        # That is safe only because nothing on the worker's path takes a
        # lock another parent thread may hold at the fork; the tracer's
        # (the one module-level lock there) is reset in the child.
        proc = multiprocessing.get_context("fork").Process(
            target=worker_loop,
            args=(str(self.queue.root),),
            kwargs={"worker_id": worker_id, "parent_pid": os.getpid()},
            name=worker_id,
            daemon=True,
        )
        proc.start()
        self.workers.append(proc)
        obs.event("fabric.worker_spawned", worker=worker_id, pid=proc.pid)
        return proc

    def spawn(self, count: int | None = None) -> None:
        """Start ``count`` workers (default: ``num_workers``)."""
        for _ in range(self.num_workers if count is None else count):
            self.spawn_worker()

    def tick(self) -> list[str]:
        """One police pass: expire stale leases, reap/respawn dead workers.

        Returns the hashes whose leases were re-queued this pass.
        """
        requeued = []
        for job_hash, disposition in self.queue.expire_stale():
            obs.event(
                "fabric.requeue", hash=job_hash[:12], disposition=disposition
            )
            if disposition == "requeued":
                self.requeues += 1
                requeued.append(job_hash)
        live: list[BaseProcess] = []
        for proc in self.workers:
            if proc.is_alive():
                live.append(proc)
                continue
            obs.event(
                "fabric.worker_exited", worker=proc.name,
                returncode=proc.exitcode,
            )
            if self.queue.unsettled() > 0 and self.respawns < self.respawn_budget:
                self.respawns += 1
                live.append(self.spawn_worker())
        self.workers = live
        return requeued

    def wait(
        self,
        jobs: Sequence[Job],
        on_result: Callable[[JobResult], None] | None = None,
        timeout: float | None = None,
    ) -> bool:
        """Poll until every cell settles (``True``) or ``timeout`` passes.

        Each cell of ``jobs`` is collected into :attr:`results` and
        streamed to ``on_result`` once, in completion order, as it
        settles.
        """
        by_hash = {job.job_hash: job for job in jobs}
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )
        while True:
            self.tick()
            # One listing serves both the streaming and the exit test, so
            # a cell that settles in between is streamed on the next pass
            # rather than never.
            settled = self.queue.settled_hashes()
            for job_hash in settled.intersection(by_hash).difference(self.results):
                result = self.results[job_hash] = self._collect_one(by_hash[job_hash])
                if on_result is not None:
                    on_result(result)
            if self.queue.unsettled(settled) <= 0:
                return True
            if not self.workers and self.respawns >= self.respawn_budget:
                self._drain_inline(deadline)
                continue
            if deadline is not None and time.monotonic() >= deadline:
                return False
            time.sleep(self.queue.config.poll_interval)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Let workers drain-exit, then terminate any stragglers."""
        deadline = time.monotonic() + timeout
        for proc in self.workers:
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover
                proc.kill()
                proc.join()
        self.workers = []

    # -- the blocking front door --------------------------------------------

    def run(
        self,
        jobs: Sequence[Job],
        on_result: Callable[[JobResult], None] | None = None,
    ) -> list[JobResult]:
        """Execute ``jobs`` through the fabric; results in job order.

        Idempotent and resumable: calling this again on the same queue
        (after any combination of worker and coordinator deaths) only
        computes cells that never settled.
        """
        jobs = list(jobs)
        with obs.span(
            "fabric.sweep", jobs=len(jobs), workers=self.num_workers
        ) as sp:
            self.enqueue(jobs)
            self.queue.seal()
            unsettled = self.queue.unsettled()
            try:
                if unsettled > 0:
                    preload_jobs(job.fn for job in jobs)
                    self.spawn(min(self.num_workers, unsettled))
                self.wait(jobs, on_result=on_result)
            except BaseException:
                # Interrupted (Ctrl-C, or on_result raised): no drain is
                # coming, so stop the workers now, then re-raise.
                self.shutdown(timeout=0.0)
                raise
            self.shutdown()
            sp.set(
                requeues=self.requeues, respawns=self.respawns,
                inline=self.inline_cells,
            )
        return [self.results[job.job_hash] for job in jobs]

    # -- internals -----------------------------------------------------------

    def _drain_inline(self, deadline: float | None) -> None:
        """Last-resort degradation: run remaining cells in this process."""
        while self.queue.unsettled() > 0:
            if deadline is not None and time.monotonic() >= deadline:
                return
            self.queue.expire_stale()
            lease = self.queue.claim("coordinator-inline")
            if lease is None:
                # Unsettled cells exist but none claimable: a dangling
                # lease is still aging toward expiry.
                time.sleep(self.queue.config.poll_interval)
                continue
            self.inline_cells += 1
            _execute_lease(self.queue, lease)

    def _collect_one(self, job: Job) -> JobResult:
        """Build the harness-shaped :class:`JobResult` for one cell."""
        payload = self.queue.result(job.job_hash)
        if payload is not None:
            return JobResult(
                job=job,
                value=payload.get("value"),
                seconds=float(payload.get("seconds") or 0.0),
                attempts=int(payload.get("attempts") or 1),
                worker=f"fabric:{payload.get('worker', '?')}",
                timeouts=int(payload.get("timeouts") or 0),
            )
        failure = self.queue.failure(job.job_hash)
        if failure is not None:
            return JobResult(
                job=job,
                error=str(failure.get("error") or "job failed"),
                attempts=int(failure.get("attempts") or 1),
                worker=f"fabric:{failure.get('worker', '?')}",
                timeouts=int(failure.get("timeouts") or 0),
            )
        return JobResult(
            job=job, error="cell never settled", worker="fabric:?"
        )


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # another user's process
    return True


def _remove_orphaned_queues() -> None:
    """Remove the ephemeral queues of coordinators that are gone.

    An ephemeral queue is named ``repro-fabric-<pid>-*`` after the
    process that made it, which removes it when the run ends; a
    coordinator killed outright (SIGKILL runs no ``finally``) leaves
    it behind.  A queue whose process is still alive is never touched,
    nor one holding a live lease: the killed coordinator's workers
    finish the cell they hold before they exit.
    """
    for path in Path(tempfile.gettempdir()).glob("repro-fabric-*-*"):
        pid = path.name.split("-")[2]
        if not pid.isdigit() or _alive(int(pid)):
            continue
        with contextlib.suppress(OSError):  # e.g. another run removed it first
            queue = WorkQueue(path)
            queue.expire_stale()
            if queue.counts()["leased"] == 0:
                shutil.rmtree(path)


class FabricExecutor:
    """Executor-protocol adapter: fabric sweeps through ``run_sweep``.

    With no ``queue_dir`` the queue is ephemeral (a temp directory,
    removed afterwards, or by the next ephemeral run if this process
    is killed first).  Point ``queue_dir`` at a stable path to make
    the sweep resumable across coordinator crashes -- re-running the
    same grid against the same queue continues instead of restarting.
    """

    def __init__(
        self,
        num_workers: int = 4,
        queue_dir: str | Path | None = None,
        lease_ttl: float = 15.0,
        heartbeat_interval: float = 1.0,
        max_attempts: int = 3,
        timeout: float | None = None,
        poll_interval: float = 0.05,
        respawn_budget: int | None = None,
    ) -> None:
        self.num_workers = max(1, int(num_workers))
        self.queue_dir = Path(queue_dir) if queue_dir is not None else None
        heartbeat_interval = max(0.05, float(heartbeat_interval))
        self.config = QueueConfig(
            # A ttl below 3 heartbeats would expire healthy workers.
            lease_ttl=max(float(lease_ttl), 3.0 * heartbeat_interval),
            heartbeat_interval=heartbeat_interval,
            max_attempts=max(1, int(max_attempts)),
            timeout=timeout,
            poll_interval=poll_interval,
        )
        self.respawn_budget = respawn_budget
        self.coordinator: Coordinator | None = None

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
        """Execute every job through a coordinator + worker fleet."""
        jobs = list(jobs)
        if not jobs:
            return []
        ephemeral = self.queue_dir is None
        if ephemeral:
            _remove_orphaned_queues()
            root = Path(tempfile.mkdtemp(prefix=f"repro-fabric-{os.getpid()}-"))
        else:
            root = self.queue_dir
        self.coordinator = Coordinator(
            WorkQueue(root, config=self.config),
            num_workers=self.num_workers,
            respawn_budget=self.respawn_budget,
        )
        try:
            return self.coordinator.run(jobs, on_result=on_result)
        finally:
            if ephemeral:
                shutil.rmtree(root, ignore_errors=True)
