"""Sweep harness with a content-addressed result store.

Every quantitative artifact in this reproduction -- Table 4's measured
beta exponents, the guest x host catalog, the saturation curves -- is a
sweep over ``(family, size, seed, policy, ...)`` cells.  This package
makes those sweeps a first-class subsystem instead of ad-hoc loops:

* :mod:`jobs` -- a :class:`Job` is a pure function reference plus a
  JSON-serializable spec with a deterministic content hash;
* :mod:`executors` -- in-process execution with per-job timeouts and
  bounded retries (parallel sweeps run on :mod:`repro.fabric`);
* :mod:`store` -- an on-disk JSON cache keyed by job hash +
  code-version salt, so resumed sweeps skip completed cells;
* :mod:`sweep` -- cartesian grid expansion, executor choice, progress
  reporting, and the ``python -m repro sweep`` CLI front-end.

Hard contract: a parallel sweep is bit-identical to the serial sweep
(seeds live in specs, never in worker state).  See ``docs/HARNESS.md``.
"""

from repro.harness.executors import JobResult, SerialExecutor
from repro.harness.jobs import (
    BUILTIN_JOBS,
    Job,
    JobError,
    TransientJobError,
    canonical_json,
    register_job,
    resolve_job,
)
from repro.harness.store import ResultStore, StoreStats, default_salt
from repro.harness.sweep import (
    SweepResult,
    expand_grid,
    local_executor,
    resolve_executor,
    run_sweep,
)

__all__ = [
    "BUILTIN_JOBS",
    "Job",
    "JobError",
    "JobResult",
    "ResultStore",
    "SerialExecutor",
    "StoreStats",
    "SweepResult",
    "TransientJobError",
    "canonical_json",
    "default_salt",
    "expand_grid",
    "local_executor",
    "register_job",
    "resolve_executor",
    "resolve_job",
    "run_sweep",
]
