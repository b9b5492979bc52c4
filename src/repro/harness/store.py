"""Content-addressed on-disk result store for harness jobs.

Layout: ``root/<salt>/<job_hash>.json``, one file per completed cell.
The **salt** partitions the store by code version: results computed by
one version of the repo are never served to another (bump
:data:`SCHEMA_VERSION` when a job's output format changes; the package
version is folded in automatically).  Within a salt, the job's content
hash is the whole key -- same ``(fn, spec)``, same file.

Reads are defensive: a missing file is a miss, a corrupted or truncated
file is a miss *and* an eviction (the bad file is deleted so it cannot
mask future writes), and a file whose recorded hash disagrees with its
name is treated the same way.  ``hits`` / ``misses`` / ``puts`` /
``evictions`` counters live on :class:`StoreStats` so sweeps can report
cache effectiveness.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.harness.jobs import Job, canonical_json

__all__ = ["SCHEMA_VERSION", "ResultStore", "StoreStats", "default_salt"]

#: Bump when the stored payload format (or any job's output schema)
#: changes incompatibly; it invalidates every cached cell.
SCHEMA_VERSION = 1


def default_salt() -> str:
    """The code-version salt: package version + store schema version."""
    from repro import __version__

    return f"repro-{__version__}-h{SCHEMA_VERSION}"


@dataclass
class StoreStats:
    """Hit/miss/evict counters for one :class:`ResultStore` instance.

    A store is shared between the service's request threads and any
    in-process sweeps, so every increment goes through :meth:`record`
    under one lock and :meth:`as_dict` snapshots under the same lock --
    readers (``GET /metrics``, the observability event sink) always see
    a consistent set of counters.
    """

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record(
        self,
        hits: int = 0,
        misses: int = 0,
        puts: int = 0,
        evictions: int = 0,
    ) -> None:
        """Atomically bump any subset of the counters."""
        with self._lock:
            self.hits += hits
            self.misses += misses
            self.puts += puts
            self.evictions += evictions

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from disk (0.0 when untouched)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready consistent snapshot (for /metrics and benches)."""
        with self._lock:
            hits, misses = self.hits, self.misses
            puts, evictions = self.puts, self.evictions
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "puts": puts,
            "evictions": evictions,
            "hit_rate": round(hits / lookups, 4) if lookups else 0.0,
        }


class ResultStore:
    """Content-addressed JSON cache keyed by job hash + code-version salt."""

    def __init__(self, root: str | Path, salt: str | None = None) -> None:
        self.root = Path(root)
        self.salt = salt if salt is not None else default_salt()
        self.stats = StoreStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r}, salt={self.salt!r})"

    def path_for(self, job: Job) -> Path:
        """Where ``job``'s result lives (whether or not it exists yet)."""
        return self.root / self.salt / f"{job.job_hash}.json"

    def get(self, job: Job) -> tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss.

        Corrupted, truncated, or mismatched files are evicted and
        counted as misses -- never raised to the caller.
        """
        path = self.path_for(job)
        try:
            payload = json.loads(path.read_text())
            if (
                not isinstance(payload, dict)
                or payload.get("hash") != job.job_hash
                or payload.get("fn") != job.fn
                or "value" not in payload
            ):
                raise ValueError("cache payload does not match its key")
        except FileNotFoundError:
            self.stats.record(misses=1)
            return False, None
        except (ValueError, OSError):
            self._evict(path)
            self.stats.record(misses=1)
            return False, None
        self.stats.record(hits=1)
        return True, payload["value"]

    def put(self, job: Job, value: Any, seconds: float | None = None) -> Path:
        """Persist ``value`` for ``job`` (atomic write via rename)."""
        path = self.path_for(job)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "fn": job.fn,
            "hash": job.job_hash,
            "spec": job.spec,
            "value": value,
            "seconds": seconds,
            "created": time.time(),
            "salt": self.salt,
        }
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(canonical_json(payload))
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self.stats.record(puts=1)
        return path

    def purge_stale(self) -> int:
        """Delete every cell written under a *different* salt.

        Returns the number of files evicted.  Call this to reclaim disk
        after a version bump; correctness never requires it (stale salts
        are simply never read).
        """
        removed = 0
        if not self.root.is_dir():
            return 0
        for child in self.root.iterdir():
            if not child.is_dir() or child.name == self.salt:
                continue
            for cell in child.glob("*.json"):
                cell.unlink(missing_ok=True)
                removed += 1
            try:
                child.rmdir()
            except OSError:
                pass
        self.stats.record(evictions=removed)
        return removed

    def __len__(self) -> int:
        """Number of cells stored under the current salt."""
        cell_dir = self.root / self.salt
        return sum(1 for _ in cell_dir.glob("*.json")) if cell_dir.is_dir() else 0

    def _evict(self, path: Path) -> None:
        try:
            path.unlink(missing_ok=True)
            self.stats.record(evictions=1)
        except OSError:  # pragma: no cover - unlink raced or read-only fs
            pass
