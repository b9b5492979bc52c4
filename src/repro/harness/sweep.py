"""Sweep front-end: cartesian grids of jobs, cached and executed.

:func:`expand_grid` turns ``(fn, axes, base)`` into the cartesian
product of jobs -- one per cell, each with a complete spec (and hence a
content hash).  :func:`run_sweep` is the funnel every consumer goes
through: look each job up in the result store, execute only the misses
on the chosen executor, persist each fresh result as the executor
reports it, and return a :class:`SweepResult` in grid order.  The store
is the only resume mechanism: rerunning an interrupted sweep against the
same store serves every cell that settled before the interruption.

Determinism contract: for the same job list, ``run_sweep`` returns the
same values no matter the executor, the worker count, or how many cells
came from the cache -- seeds live in specs, and results are re-ordered
to submission order.  ``python -m repro sweep`` exposes the same engine
on the command line.

``executor`` also accepts a name -- ``"serial"``, ``"parallel"``, or
``"fabric"`` -- for callers that do not want to construct one.  Both
multi-process names run on the fabric's forked worker pool
(:mod:`repro.fabric`, see ``docs/FABRIC.md``): there is one in-process
path and one crash-safe parallel path.
"""

from __future__ import annotations

import itertools
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.harness.executors import JobResult, SerialExecutor
from repro.harness.jobs import Job
from repro.harness.store import ResultStore
from repro.obs import trace as obs

__all__ = [
    "SweepResult",
    "expand_grid",
    "local_executor",
    "resolve_executor",
    "run_sweep",
]


def local_executor(
    workers: int | None = None,
    timeout: float | None = None,
    retries: int = 1,
) -> Any:
    """The executor for ``workers`` local processes (default: one per CPU).

    One worker runs the cells in this process
    (:class:`SerialExecutor`); more run them on the fabric with that
    many forked workers.  Either way each attempt gets ``timeout``
    seconds and a transient failure is retried ``retries`` times, so
    the worker count changes where cells run, never what they return.
    """
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1:
        return SerialExecutor(timeout=timeout, retries=retries)
    from repro.fabric import FabricExecutor

    return FabricExecutor(
        num_workers=workers, timeout=timeout, max_attempts=retries + 1
    )


def resolve_executor(executor: Any) -> Any:
    """Map an executor name to an instance; pass instances through.

    Names: ``"serial"``, ``"parallel"`` (:func:`local_executor`: one
    forked fabric worker per CPU, serial on one CPU), ``"fabric"``
    (the fabric's own defaults).  The fabric import is lazy so the
    harness has no hard dependency on :mod:`repro.fabric`.
    """
    if executor is None:
        return SerialExecutor()
    if not isinstance(executor, str):
        return executor
    name = executor.strip().lower()
    if name == "serial":
        return SerialExecutor()
    if name == "parallel":
        return local_executor()
    if name == "fabric":
        from repro.fabric import FabricExecutor

        return FabricExecutor()
    raise ValueError(
        f"unknown executor {executor!r}: expected 'serial', 'parallel', "
        "'fabric', or an executor instance"
    )


def expand_grid(
    fn: str,
    axes: Mapping[str, Sequence[Any]],
    base: Mapping[str, Any] | None = None,
) -> list[Job]:
    """Cartesian product of ``axes`` over ``base``: one job per cell.

    Axis order fixes cell order (last axis varies fastest, like nested
    loops); ``base`` supplies spec keys shared by every cell.  An axis
    may not shadow a base key -- that is almost always a bug.
    """
    base = dict(base or {})
    axes = {key: list(values) for key, values in axes.items()}
    shadowed = sorted(set(base) & set(axes))
    if shadowed:
        raise ValueError(f"axes shadow base spec keys: {shadowed}")
    for key, values in axes.items():
        if not values:
            raise ValueError(f"axis {key!r} is empty; the grid would be too")
    jobs = []
    for combo in itertools.product(*axes.values()):
        spec = dict(base)
        spec.update(zip(axes.keys(), combo))
        jobs.append(Job(fn, spec))
    return jobs


@dataclass
class SweepResult:
    """Everything one sweep produced, in grid order."""

    results: list[JobResult]
    wall_seconds: float
    executor: str
    store_stats: dict[str, Any] | None = None

    @property
    def values(self) -> list[Any]:
        """The job values, grid-ordered (``None`` for failed cells)."""
        return [r.value for r in self.results]

    @property
    def num_cached(self) -> int:
        return sum(1 for r in self.results if r.cached)

    @property
    def num_failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    @property
    def num_retries(self) -> int:
        """Total re-executions after first attempts, across all cells."""
        return sum(r.retries for r in self.results)

    @property
    def num_timeouts(self) -> int:
        """Total per-attempt deadline expiries, across all cells."""
        return sum(r.timeouts for r in self.results)

    @property
    def ok(self) -> bool:
        return self.num_failed == 0

    @property
    def cache_hit_rate(self) -> float:
        """Fraction of this sweep's cells served from the store."""
        return self.num_cached / len(self.results) if self.results else 0.0

    def errors(self) -> list[tuple[Job, str]]:
        """The failed cells as ``(job, error message)`` pairs."""
        return [(r.job, r.error) for r in self.results if not r.ok]

    def value_by_spec(self, **spec_items: Any) -> Any:
        """The value of the unique cell whose spec contains ``spec_items``."""
        matches = [
            r
            for r in self.results
            if all(r.job.spec.get(k) == v for k, v in spec_items.items())
        ]
        if len(matches) != 1:
            raise KeyError(
                f"{len(matches)} cells match {spec_items!r} (want exactly 1)"
            )
        return matches[0].value

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready record of the whole sweep (what ``--out`` writes)."""
        return {
            "executor": self.executor,
            "wall_seconds": round(self.wall_seconds, 4),
            "num_jobs": len(self.results),
            "num_cached": self.num_cached,
            "num_failed": self.num_failed,
            "num_retries": self.num_retries,
            "num_timeouts": self.num_timeouts,
            "store": self.store_stats,
            "results": [r.as_dict() for r in self.results],
        }


def _progress_printer(total: int) -> Callable[[JobResult], None]:
    done = itertools.count(1)

    def show(result: JobResult) -> None:
        tag = "cache" if result.cached else f"{result.seconds:.3f}s"
        status = "" if result.ok else "  FAILED"
        print(
            f"[{next(done):>{len(str(total))}}/{total}] "
            f"{result.job.label()}  {tag}{status}",
            file=sys.stderr,
        )

    return show


def run_sweep(
    jobs: Iterable[Job],
    executor: Any = None,
    store: ResultStore | None = None,
    progress: bool | Callable[[JobResult], None] = False,
) -> SweepResult:
    """Run every job, serving repeats from ``store`` when one is given.

    Cache hits never execute; misses run on ``executor`` (default
    serial; also accepts ``"serial"``/``"parallel"``/``"fabric"`` by
    name, see :func:`resolve_executor`).  Each successful fresh result
    is persisted the moment the executor reports it, before ``progress``
    sees it, so every cell whose progress line printed is in the store
    and a rerun of an interrupted sweep executes only the rest.  The
    returned results are in job order regardless of completion order.
    """
    jobs = list(jobs)
    executor = resolve_executor(executor)
    on_result = (
        _progress_printer(len(jobs))
        if progress is True
        else (progress if callable(progress) else None)
    )

    def settle(result: JobResult) -> None:
        if store is not None and result.ok:
            store.put(result.job, result.value, seconds=result.seconds)
        if on_result is not None:
            on_result(result)

    t0 = time.perf_counter()
    with obs.span(
        "harness.sweep", jobs=len(jobs), executor=executor.description
    ) as sp:
        obs.event("sweep.started", jobs=len(jobs), executor=executor.description)
        results: list[JobResult | None] = [None] * len(jobs)
        pending: list[int] = []
        for i, job in enumerate(jobs):
            if store is not None:
                hit, value = store.get(job)
                if hit:
                    results[i] = JobResult(
                        job=job, value=value, attempts=0, cached=True,
                        worker="store",
                    )
                    obs.event(
                        "job.cache_hit", tier="store", fn=job.fn,
                        hash=job.job_hash[:12],
                    )
                    if on_result is not None:
                        on_result(results[i])
                    continue
            pending.append(i)

        if pending:
            fresh = executor.run([jobs[i] for i in pending], on_result=settle)
            for i, result in zip(pending, fresh):
                results[i] = result

        sweep = SweepResult(
            results=results,  # type: ignore[arg-type]
            wall_seconds=time.perf_counter() - t0,
            executor=executor.description,
            store_stats=store.stats.as_dict() if store is not None else None,
        )
        sp.set(
            cached=sweep.num_cached, failed=sweep.num_failed,
            retries=sweep.num_retries, timeouts=sweep.num_timeouts,
        )
        obs.event(
            "sweep.finished",
            jobs=len(jobs),
            cached=sweep.num_cached,
            failed=sweep.num_failed,
            retries=sweep.num_retries,
            timeouts=sweep.num_timeouts,
            wall_seconds=round(sweep.wall_seconds, 6),
        )
    return sweep
