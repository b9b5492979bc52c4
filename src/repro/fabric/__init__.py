"""Distributed, resumable sweep fabric over the harness result store.

The harness (:mod:`repro.harness`) runs cells in process; this package
is its one parallel path (``run_sweep(executor="parallel")`` runs
here).  It is a **work-queue execution fabric** in which a
:class:`Coordinator` owns a durable on-disk queue of content-hashed job
specs (:class:`~repro.fabric.queue.WorkQueue`) and independent
:mod:`~repro.fabric.worker` processes *lease* cells from it --
heartbeats keep a lease alive, a crashed worker's lease expires and the
cell is re-leased with bounded attempts, and a killed-and-restarted
coordinator resumes from the queue plus the
:class:`~repro.harness.store.ResultStore` without recomputing finished
cells.  Every coordination primitive is a file plus an atomic rename,
so the protocol is host-agnostic: point workers on any machine at a
shared queue directory and they cooperate.

Correctness anchor: a fabric sweep is **bit-identical** to a serial
sweep of the same grid (all randomness lives in job specs; completion
is idempotent -- a cell computed twice writes the same bytes).

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
    "Coordinator",
    "FabricExecutor",
    "Lease",
    "QueueConfig",
    "SnapshotError",
    "WorkQueue",
    "build_snapshot",
    "worker_loop",
    "write_snapshot",
]

# Exports resolve lazily (PEP 562) so ``python -m repro.fabric.worker``
# -- the entry point a worker on another host runs -- does not import
# the whole package (and hence the worker module itself) before runpy
# executes it, which would trigger a double-import warning.
_HOMES = {
    "Coordinator": "coordinator",
    "FabricExecutor": "coordinator",
    "Lease": "queue",
    "QueueConfig": "queue",
    "WorkQueue": "queue",
    "SNAPSHOT_MAGIC": "snapshot",
    "CatalogSnapshot": "snapshot",
    "SnapshotError": "snapshot",
    "build_snapshot": "snapshot",
    "write_snapshot": "snapshot",
    "worker_loop": "worker",
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
