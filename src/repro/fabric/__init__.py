"""The sweep fabric: a forked worker pool and catalog snapshots.

The harness (:mod:`repro.harness`) runs cells in process; this package
is its one parallel path (``run_sweep(executor="parallel")`` runs
here).  :class:`FabricExecutor` forks a pool of workers, one pipe each,
and hands every idle worker the next cell; a worker that dies is seen
at once as end-of-file on its pipe, its cell is retried with bounded
attempts and the worker is respawned.  Nothing is written to disk: the
:class:`~repro.harness.store.ResultStore` a sweep writes as cells
settle is what resumes an interrupted sweep.

Correctness anchor: a fabric sweep is **bit-identical** to a serial
sweep of the same grid (all randomness lives in job specs, and every
worker runs the serial executor's job core).

On top sits :class:`~repro.fabric.snapshot.CatalogSnapshot`: a
read-optimized, versioned, checksummed single-file tier (sorted
fixed-width index + ``mmap``) that the query service consults before
its LRU/ResultStore tiers, so known cells are served at cache-read
latency and never touch the compute path.  See ``docs/FABRIC.md``.
"""

import importlib

__all__ = [
    "SNAPSHOT_MAGIC",
    "CatalogSnapshot",
    "FabricExecutor",
    "SnapshotError",
    "build_snapshot",
    "write_snapshot",
]

# Exports resolve lazily (PEP 562), so the service's snapshot reader
# does not import the executor's multiprocessing stack, nor a sweep the
# snapshot code.
_HOMES = {
    "FabricExecutor": "pool",
    "SNAPSHOT_MAGIC": "snapshot",
    "CatalogSnapshot": "snapshot",
    "SnapshotError": "snapshot",
    "build_snapshot": "snapshot",
    "write_snapshot": "snapshot",
}


def __getattr__(name: str):
    """Resolve a lazy export from its home submodule."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    """Advertise the lazy exports alongside the real module contents."""
    return sorted(set(globals()) | set(_HOMES))
