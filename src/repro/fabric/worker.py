"""Fabric worker: claim, heartbeat, execute, settle -- repeat until drained.

A worker is deliberately boring: it owns no sweep state, so killing one
at any instant (including ``SIGKILL`` mid-job) loses nothing but its
lease, which expires and is re-leased.  All it does::

    while not queue.drained():
        lease = queue.claim(me)            # atomic rename
        heartbeat thread keeps lease alive
        run the pure job function (same SIGALRM deadline as the harness)
        complete / release(transient) / fail(deterministic)

Results land in the queue only; the sweep that drives the queue puts
them into its result store as the coordinator streams them.

Runnable standalone -- ``python -m repro.fabric.worker QUEUE_DIR`` --
so the protocol stays host-agnostic: the coordinator forks its local
workers straight into :func:`worker_loop`, and any other machine that
mounts the queue directory can contribute by running this module.
"""

from __future__ import annotations

import argparse
import os
import signal
import socket
import threading
import time

from repro.harness.executors import _execute_job, _is_timeout
from repro.obs import trace as obs

from repro.fabric.queue import Lease, WorkQueue

__all__ = ["worker_loop"]


def _default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _HeartbeatThread(threading.Thread):
    """Refreshes one lease's heartbeat until stopped (daemon thread)."""

    def __init__(self, queue: WorkQueue, lease: Lease, interval: float) -> None:
        super().__init__(daemon=True, name=f"heartbeat-{lease.job_hash[:8]}")
        self._queue = queue
        self._lease = lease
        self._interval = max(0.05, float(interval))
        # Not named _stop: threading.Thread owns that attribute.
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(self._interval):
            if not self._queue.heartbeat(self._lease):
                # Lease revoked (coordinator expired it); keep running
                # the job -- completion is idempotent -- but stop
                # touching files that are no longer ours.
                return

    def stop(self) -> None:
        """Signal the thread to exit and wait for it."""
        self._halt.set()
        self.join(timeout=2.0)


def _execute_lease(queue: WorkQueue, lease: Lease) -> str:
    """Run one leased cell to a settled (or re-queued) state.

    Returns the disposition: ``done``, ``requeued``, ``failed``, or
    ``orphaned`` (job spec file missing -- a corrupted queue).
    """
    job = queue.load_job(lease.job_hash)
    if job is None:
        queue.fail(lease, "orphaned lease: job spec missing from queue")
        return "orphaned"
    beat = _HeartbeatThread(queue, lease, queue.config.heartbeat_interval)
    beat.start()
    t0 = time.perf_counter()
    try:
        with obs.span(
            "fabric.job", fn=job.fn, hash=lease.job_hash[:12],
            attempt=lease.attempts,
        ) as sp:
            status, payload = _execute_job(job.fn, job.spec, queue.config.timeout)
            sp.set(status=status)
    finally:
        beat.stop()
    seconds = time.perf_counter() - t0
    if status == "transient" and _is_timeout(payload):
        lease.timeouts += 1
    if status == "ok":
        queue.complete(lease, payload, seconds=seconds)
        obs.event(
            "fabric.complete", hash=lease.job_hash[:12],
            worker=lease.worker, seconds=round(seconds, 6),
        )
        return "done"
    if status == "transient":
        requeued = queue.release(lease, payload)
        obs.event(
            "fabric.transient", hash=lease.job_hash[:12],
            worker=lease.worker, requeued=requeued, error=payload,
        )
        return "requeued" if requeued else "failed"
    queue.fail(lease, payload)
    obs.event(
        "fabric.failed", hash=lease.job_hash[:12],
        worker=lease.worker, error=payload,
    )
    return "failed"


def worker_loop(
    queue_dir: str,
    worker_id: str | None = None,
    max_jobs: int | None = None,
    parent_pid: int | None = None,
) -> int:
    """Process cells from ``queue_dir`` until it drains; returns the count.

    ``max_jobs`` bounds how many cells this worker settles (used by
    tests to stage partial progress); ``None`` means run to drain.
    ``parent_pid`` is set by the coordinator that forks this worker: the
    worker then ignores SIGINT, because a terminal Ctrl-C reaches the
    whole process group and the coordinator reports it, and it stops
    claiming once that process is gone, so a killed coordinator leaves
    no worker draining a queue nobody reads.
    """
    if parent_pid is not None:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    queue = WorkQueue(queue_dir)
    me = worker_id or _default_worker_id()
    handled = 0
    obs.event("fabric.worker_started", worker=me)
    while max_jobs is None or handled < max_jobs:
        if parent_pid is not None and os.getppid() != parent_pid:
            break
        lease = queue.claim(me)
        if lease is None:
            if queue.drained():
                break
            time.sleep(queue.config.poll_interval)
            continue
        obs.event(
            "fabric.lease", hash=lease.job_hash[:12], worker=me,
            attempt=lease.attempts,
        )
        _execute_lease(queue, lease)
        handled += 1
    obs.event("fabric.worker_drained", worker=me, handled=handled)
    return handled


def main(argv: list[str] | None = None) -> int:
    """Standalone worker entry point (``python -m repro.fabric.worker``)."""
    ap = argparse.ArgumentParser(
        prog="repro-fabric-worker", description=__doc__
    )
    ap.add_argument("queue_dir", help="the fabric queue directory")
    ap.add_argument(
        "--worker-id", default=None,
        help="stable identity for lease/heartbeat records (default host-pid)",
    )
    ap.add_argument(
        "--max-jobs", type=int, default=None,
        help="exit after settling this many cells (default: run to drain)",
    )
    args = ap.parse_args(argv)
    worker_loop(args.queue_dir, worker_id=args.worker_id, max_jobs=args.max_jobs)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
