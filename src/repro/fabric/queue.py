r"""Durable leased work queue: the fabric's on-disk coordination protocol.

A :class:`WorkQueue` is a directory.  Every state transition is a file
create or an atomic ``rename`` inside it, so the queue needs no server,
no locks beyond the filesystem's, and survives the death of any process
that touches it.  Workers on any host that can see the directory (a
local disk today, a shared mount later) speak the same protocol.

Layout::

    root/
      queue.json        immutable config (lease ttl, heartbeat, retries)
      sealed            marker: every job of this sweep has been enqueued
      jobs/<hash>.json  the job spec (fn + spec), immutable once written
      pending/<hash>    claimable marker; holds {"attempts", "timeouts"}
                        so far
      leases/<hash>     held cell: {"worker", "attempts", "timeouts",
                        "heartbeat"}
      results/<hash>.json  completed cell: value + timing + worker
      failed/<hash>.json   terminally failed cell: error + attempts

``timeouts`` counts the attempts that hit the per-job deadline, carried
from attempt to attempt so a settled cell reports them all.

State machine per cell::

    pending --claim(rename)--> leased --complete--> done (results/)
       ^                         |  \--fail-------> failed (failed/)
       |                         |
       +----requeue(rename)------+   (transient error, or lease expiry:
                                      heartbeat older than lease_ttl)

The **claim** is ``os.rename(pending/<h>, leases/<h>)``: rename is
atomic on POSIX, so exactly one of N racing workers wins a cell and
there is no instant at which a cell is claimable twice.  **Completion
is idempotent**: job functions are pure, so a cell computed twice (a
slow-but-alive worker whose lease was expired, plus the re-lease)
writes byte-identical results and the second writer simply wins the
atomic replace.  A cell is **settled** once it has a result or a
terminal failure; settled files only ever accumulate, which is what
makes the drain condition race-free.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.harness.jobs import Job, canonical_json

__all__ = ["Lease", "QueueConfig", "WorkQueue"]

_CONFIG_NAME = "queue.json"
_SEALED_NAME = "sealed"


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + rename."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_json(path: Path) -> dict[str, Any] | None:
    """Parse a small JSON file; ``None`` when missing or mid-write."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


@dataclass(frozen=True)
class QueueConfig:
    """Fabric-wide knobs, written once by the coordinator and read by
    every worker, so standalone workers need only the queue directory.

    ``lease_ttl`` is the crash detector: a lease whose heartbeat is
    older than this is considered lost and the cell is re-leased.  It
    must comfortably exceed ``heartbeat_interval`` (the coordinator
    enforces 3x) or healthy workers would be treated as dead.
    """

    lease_ttl: float = 15.0
    heartbeat_interval: float = 1.0
    max_attempts: int = 3
    timeout: float | None = None
    poll_interval: float = 0.05

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (what ``queue.json`` holds)."""
        return {
            "lease_ttl": self.lease_ttl,
            "heartbeat_interval": self.heartbeat_interval,
            "max_attempts": self.max_attempts,
            "timeout": self.timeout,
            "poll_interval": self.poll_interval,
        }


@dataclass
class Lease:
    """One held cell: who is computing it, which attempt, since when."""

    job_hash: str
    worker: str
    attempts: int  # 1-based: the attempt this lease is executing
    heartbeat: float = field(default_factory=time.time)
    timeouts: int = 0  # earlier attempts (and this one) that timed out

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready form (what ``leases/<hash>`` holds)."""
        return {
            "hash": self.job_hash,
            "worker": self.worker,
            "attempts": self.attempts,
            "timeouts": self.timeouts,
            "heartbeat": self.heartbeat,
        }


class WorkQueue:
    """A durable directory-backed job queue with leases and heartbeats."""

    def __init__(self, root: str | Path, config: QueueConfig | None = None) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.pending_dir = self.root / "pending"
        self.leases_dir = self.root / "leases"
        self.results_dir = self.root / "results"
        self.failed_dir = self.root / "failed"
        for sub in (
            self.jobs_dir, self.pending_dir, self.leases_dir,
            self.results_dir, self.failed_dir,
        ):
            sub.mkdir(parents=True, exist_ok=True)
        existing = _read_json(self.root / _CONFIG_NAME)
        if existing is not None and config is None:
            self.config = QueueConfig(**existing)
        else:
            self.config = config or QueueConfig()
            _write_atomic(
                self.root / _CONFIG_NAME, canonical_json(self.config.as_dict())
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WorkQueue({str(self.root)!r})"

    # -- enqueue / seal (coordinator side) -----------------------------------

    def add(self, job: Job) -> bool:
        """Enqueue ``job`` unless it is already known; ``True`` if added.

        Re-adding a job that a previous (crashed) run already enqueued
        is a no-op whatever state the cell is in -- this is what makes a
        coordinator restart resume instead of duplicate.
        """
        job_file = self.jobs_dir / f"{job.job_hash}.json"
        if job_file.exists():
            return False
        _write_atomic(job_file, canonical_json({"fn": job.fn, "spec": job.spec}))
        _write_atomic(self.pending_dir / job.job_hash, canonical_json({"attempts": 0}))
        return True

    def seal(self) -> None:
        """Mark the sweep's job set complete; workers may drain-exit."""
        _write_atomic(self.root / _SEALED_NAME, canonical_json({"sealed": time.time()}))

    @property
    def sealed(self) -> bool:
        """Whether every job of the sweep has been enqueued."""
        return (self.root / _SEALED_NAME).exists()

    def load_job(self, job_hash: str) -> Job | None:
        """Rehydrate the :class:`Job` behind ``job_hash`` (None if unknown)."""
        payload = _read_json(self.jobs_dir / f"{job_hash}.json")
        if payload is None:
            return None
        return Job(payload["fn"], payload.get("spec") or {})

    # -- claim / heartbeat / settle (worker side) ----------------------------

    def claim(self, worker: str) -> Lease | None:
        """Atomically claim one pending cell, or ``None`` if none remain.

        The winning move is the rename; losing it (another worker got
        there first) just advances to the next candidate.  Workers start
        the scan at a worker-dependent rotation so N workers racing an
        empty-ish queue do not all fight over the same first file.
        """
        names = sorted(self._names(self.pending_dir))
        if not names:
            return None
        start = zlib.crc32(worker.encode("utf-8")) % len(names)
        for name in names[start:] + names[:start]:
            if (self.results_dir / f"{name}.json").exists():
                # Completed by a slow worker after a requeue: settle the
                # stray pending marker instead of recomputing.
                (self.pending_dir / name).unlink(missing_ok=True)
                continue
            marker = _read_json(self.pending_dir / name)
            try:
                # Touch, then rename: until the lease is written below,
                # the claimed file is this marker, aged by its mtime.
                os.utime(self.pending_dir / name)
                os.rename(self.pending_dir / name, self.leases_dir / name)
            except FileNotFoundError:
                continue  # lost the race for this cell
            marker = marker or {}
            lease = Lease(
                job_hash=name,
                worker=worker,
                attempts=int(marker.get("attempts", 0)) + 1,
                timeouts=int(marker.get("timeouts", 0)),
            )
            _write_atomic(self.leases_dir / name, canonical_json(lease.as_dict()))
            return lease
        return None

    def heartbeat(self, lease: Lease) -> bool:
        """Refresh ``lease``'s heartbeat; ``False`` if it was revoked.

        A revoked lease (the coordinator expired it and re-queued the
        cell) is not an error for the holder: it may finish and call
        :meth:`complete` anyway, because completion is idempotent.
        """
        if not (self.leases_dir / lease.job_hash).exists():
            return False
        lease.heartbeat = time.time()
        _write_atomic(
            self.leases_dir / lease.job_hash, canonical_json(lease.as_dict())
        )
        return True

    def complete(
        self, lease: Lease, value: Any, seconds: float = 0.0
    ) -> None:
        """Settle ``lease``'s cell with ``value`` (idempotent)."""
        _write_atomic(
            self.results_dir / f"{lease.job_hash}.json",
            canonical_json(
                {
                    "hash": lease.job_hash,
                    "value": value,
                    "seconds": round(seconds, 6),
                    "worker": lease.worker,
                    "attempts": lease.attempts,
                    "timeouts": lease.timeouts,
                }
            ),
        )
        (self.leases_dir / lease.job_hash).unlink(missing_ok=True)
        (self.pending_dir / lease.job_hash).unlink(missing_ok=True)

    def fail(self, lease: Lease, error: str) -> None:
        """Settle ``lease``'s cell as a terminal failure."""
        _write_atomic(
            self.failed_dir / f"{lease.job_hash}.json",
            canonical_json(
                {
                    "hash": lease.job_hash,
                    "error": error,
                    "worker": lease.worker,
                    "attempts": lease.attempts,
                    "timeouts": lease.timeouts,
                }
            ),
        )
        (self.leases_dir / lease.job_hash).unlink(missing_ok=True)

    def release(self, lease: Lease, error: str) -> bool:
        """Return a transiently-failed cell to ``pending`` for another try.

        ``True`` when re-queued; ``False`` when the attempt budget is
        exhausted, in which case the cell is terminally failed instead.
        """
        if lease.attempts >= self.config.max_attempts:
            self.fail(lease, error)
            return False
        _write_atomic(
            self.pending_dir / lease.job_hash,
            canonical_json(
                {"attempts": lease.attempts, "timeouts": lease.timeouts}
            ),
        )
        (self.leases_dir / lease.job_hash).unlink(missing_ok=True)
        return True

    # -- lease expiry (coordinator side) -------------------------------------

    def expire_stale(self, now: float | None = None) -> list[tuple[str, str]]:
        """Re-queue (or terminally fail) every lease with a dead heartbeat.

        Returns ``(job_hash, disposition)`` pairs, disposition being
        ``"requeued"`` or ``"failed"``.  A lease file without a heartbeat
        is aged by its mtime instead: mid-claim it is the renamed pending
        marker, which :meth:`claim` touched just before the rename, and
        an unparseable file fails terminally once it expires.
        """
        now = time.time() if now is None else now
        expired: list[tuple[str, str]] = []
        for name in self._names(self.leases_dir):
            path = self.leases_dir / name
            payload = _read_json(path)
            if payload is not None and "heartbeat" in payload:
                beat = float(payload["heartbeat"])
            else:
                try:
                    beat = path.stat().st_mtime
                except OSError:
                    continue  # settled or re-queued between list and stat
                if payload is None:
                    payload = {"attempts": self.config.max_attempts, "worker": "?"}
            if now - beat <= self.config.lease_ttl:
                continue
            lease = Lease(
                job_hash=name,
                worker=str(payload.get("worker", "?")),
                attempts=int(payload.get("attempts", 1)),
                heartbeat=beat,
                timeouts=int(payload.get("timeouts", 0)),
            )
            if (self.results_dir / f"{name}.json").exists():
                path.unlink(missing_ok=True)  # settled; just drop the husk
                continue
            message = (
                f"lease lost: no heartbeat from worker {lease.worker!r} "
                f"for {now - beat:.1f}s (attempt {lease.attempts})"
            )
            if self.release(lease, message):
                expired.append((name, "requeued"))
            else:
                expired.append((name, "failed"))
        return expired

    # -- introspection -------------------------------------------------------

    @staticmethod
    def _names(directory: Path) -> list[str]:
        """The cell files in ``directory``.  A writer killed inside
        :func:`_write_atomic` leaves its ``.tmp`` file behind; that is no
        cell, and counting it would end a drain early."""
        try:
            names = os.listdir(directory)
        except FileNotFoundError:  # pragma: no cover - root deleted under us
            return []
        return [name for name in names if not name.endswith(".tmp")]

    def counts(self) -> dict[str, int]:
        """Cell counts per state (one directory listing each)."""
        return {
            "jobs": len(self._names(self.jobs_dir)),
            "pending": len(self._names(self.pending_dir)),
            "leased": len(self._names(self.leases_dir)),
            "done": len(self._names(self.results_dir)),
            "failed": len(self._names(self.failed_dir)),
        }

    def settled_hashes(self) -> set[str]:
        """Hashes of every cell that has a result or a terminal failure."""
        done = {n[: -len(".json")] for n in self._names(self.results_dir)}
        done |= {n[: -len(".json")] for n in self._names(self.failed_dir)}
        return done

    def unsettled(self, settled: set[str] | None = None) -> int:
        """How many enqueued cells still lack a result or failure.

        ``settled`` is a :meth:`settled_hashes` listing the caller
        already holds; by default a fresh one is taken.
        """
        if settled is None:
            settled = self.settled_hashes()
        return len(self._names(self.jobs_dir)) - len(settled)

    def drained(self) -> bool:
        """Whether a worker may exit: sealed and every cell settled."""
        return self.sealed and self.unsettled() <= 0

    def result(self, job_hash: str) -> dict[str, Any] | None:
        """The settled result payload for ``job_hash``, if any."""
        return _read_json(self.results_dir / f"{job_hash}.json")

    def failure(self, job_hash: str) -> dict[str, Any] | None:
        """The terminal-failure payload for ``job_hash``, if any."""
        return _read_json(self.failed_dir / f"{job_hash}.json")
