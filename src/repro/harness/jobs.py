"""Job model: a pure function reference plus a JSON-serializable spec.

A :class:`Job` names *what to compute* without computing it: ``fn`` is a
dotted ``"module:callable"`` path (or a registered alias) to a **job
function** -- a pure function ``spec -> JSON-serializable value`` -- and
``spec`` is the complete input, including every seed.  Because the spec
is total, a job has a deterministic **content hash**: the SHA-256 of the
canonical JSON of ``{"fn": ..., "spec": ...}``.  Two jobs with the same
hash compute the same value, which is what lets the result store
(:mod:`repro.harness.store`) skip re-execution and lets the parallel
executor (:mod:`repro.harness.executors`) guarantee bit-identical
results to a serial run: all randomness lives in the spec, never in
worker state.

Job functions must be importable by name (module-level, not closures) so
worker processes can resolve them; :data:`BUILTIN_JOBS` maps short
aliases to the entry points the repo ships.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

__all__ = [
    "BUILTIN_JOBS",
    "Job",
    "JobError",
    "TransientJobError",
    "canonical_json",
    "canonical_path",
    "preload_jobs",
    "resolve_job",
]

#: Short aliases -> dotted ``"module:callable"`` job entry points.
BUILTIN_JOBS: dict[str, str] = {
    "measure_bandwidth": "repro.routing.measure:measure_bandwidth_job",
    "measure_bandwidth_batch": "repro.routing.measure:measure_bandwidth_batch_job",
    "saturation_sweep": "repro.routing.saturation:saturation_sweep_job",
    "catalog_cell": "repro.theory.catalog:catalog_cell_job",
    "emulate": "repro.emulation.emulator:emulate_job",
    "all_reduce_time": "repro.workloads.collective:all_reduce_time_job",
}


class JobError(RuntimeError):
    """A job failed for a deterministic reason; retrying cannot help."""


class TransientJobError(JobError):
    """A job failed transiently (timeout, resource blip); executors
    retry these up to their retry budget."""


def canonical_path(fn: str) -> str:
    """Resolve an alias to its dotted path; validate the form."""
    fn = BUILTIN_JOBS.get(fn, fn)
    if ":" not in fn:
        raise ValueError(
            f"unknown job {fn!r}: not a registered alias "
            f"({sorted(BUILTIN_JOBS)}) and not a 'module:callable' path"
        )
    return fn


def resolve_job(fn: str) -> Callable[[Mapping[str, Any]], Any]:
    """Import and return the job function behind ``fn``."""
    path = canonical_path(fn)
    module_name, _, attr = path.partition(":")
    module = importlib.import_module(module_name)
    try:
        func = getattr(module, attr)
    except AttributeError as exc:
        raise JobError(f"{module_name} has no job function {attr!r}") from exc
    if not callable(func):
        raise JobError(f"{path} is not callable")
    return func


def preload_jobs(fns: Iterable[str]) -> None:
    """Import the job function behind each of ``fns`` now.

    A process that forks workers or serves requests calls this first,
    so its children and its first request inherit the imports instead
    of paying them.  A job that does not resolve is skipped: running it
    still fails, cell by cell, with its own error.
    """
    for fn in sorted(set(fns)):
        with contextlib.suppress(Exception):
            resolve_job(fn)


def canonical_json(obj: Any) -> str:
    """Deterministic JSON: sorted keys, no whitespace, NaN rejected.

    This is the hashing surface -- any two specs that canonicalize to
    the same string are the same job.  ``allow_nan=False`` keeps the
    hash well-defined (NaN != NaN would poison cache keys).
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


@dataclass(frozen=True)
class Job:
    """One unit of sweep work: ``resolve_job(fn)(spec)``.

    The spec is normalized through a canonical-JSON round trip at
    construction time, so Python-level container differences (tuple vs
    list) cannot change the hash, and non-serializable specs fail fast
    here rather than inside a worker.
    """

    fn: str
    spec: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fn", canonical_path(self.fn))
        try:
            normalized = json.loads(canonical_json(dict(self.spec)))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"job spec is not JSON-serializable: {exc}") from exc
        object.__setattr__(self, "spec", normalized)

    @property
    def job_hash(self) -> str:
        """SHA-256 content hash of ``(fn, spec)`` (hex)."""
        payload = canonical_json({"fn": self.fn, "spec": self.spec})
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Compact human-readable cell label for progress lines."""
        short = self.fn.rpartition(":")[2]
        args = " ".join(f"{k}={self.spec[k]}" for k in sorted(self.spec))
        return f"{short}({args})" if args else f"{short}()"

    def run(self) -> Any:
        """Execute the job in-process (the serial path)."""
        return resolve_job(self.fn)(self.spec)
