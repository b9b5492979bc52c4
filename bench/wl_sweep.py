"""``sweep_grid``: a cold grid of many small cells through both
multi-process executors.

With 108 cells of at most n=256 each, per-cell spawn, queue and
store-write overhead is the cost, not the cells.  This is the workload
that writes the result store, which ``service`` only reads.  Set-up is
executor start-up: the smallest sweep that starts each executor's
worker processes (two cells), so work moved into start-up shows.
"""

from __future__ import annotations

import re
import shutil
import statistics
import tempfile
import time

from common import Op, Workload, bandwidth_fields, build_machine, fields_match, measure_layers
from spans import self_time

FAMILIES = ("linear_array", "tree", "mesh_2", "de_bruijn", "butterfly", "xtree")
SIZES = (64, 128, 256)
SEEDS_PER_CELL = 6
FABRIC_WORKERS = 2
#: Every VERIFY_EVERY-th cell is recomputed in-process after the timed phase.
VERIFY_EVERY = 12


def _workers(sweep) -> int:
    """Worker count from the executor tag (``parallel[2]``, ``fabric[2]``)."""
    m = re.search(r"\[(\d+)\]", sweep.executor)
    return int(m.group(1)) if m else 1


class SweepGrid(Workload):
    name = "sweep_grid"
    why = "108 small cold cells: executor spawn, queue and store-write overhead dominate"

    def __init__(self, seed, tally, scratch):
        from repro.harness import expand_grid

        super().__init__(seed, tally, scratch)
        self.jobs = expand_grid(
            "measure_bandwidth",
            {
                "family": list(FAMILIES),
                "size": list(SIZES),
                "seed": [SEEDS_PER_CELL * seed + i for i in range(SEEDS_PER_CELL)],
            },
        )
        self.values = None

    def _fabric(self):
        from repro.fabric import FabricExecutor

        return FabricExecutor(num_workers=FABRIC_WORKERS)

    def _sweep(self, jobs, executor):
        """``run_sweep`` into a fresh store; the store is removed by ``_done``."""
        from repro.harness import ResultStore, run_sweep

        root = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        return run_sweep(jobs, executor=executor, store=ResultStore(root)), root

    def _done(self, name, out, grid=True) -> None:
        """Count every cell; a grid's cells must equal the first grid's."""
        sweep, root = out
        shutil.rmtree(root, ignore_errors=True)
        if grid and self.values is None and sweep.ok:
            self.values = sweep.values
        for i, result in enumerate(sweep.results):
            ok = result.ok and (
                not grid or (self.values is not None and result.value == self.values[i])
            )
            self.tally.check(ok, f"{name}: cell {result.job.label()} failed or differs: {result.error}")

    def setup(self, rec) -> None:
        start = self.jobs[:2]
        with rec.span("harness.executor"):
            out = self._sweep(start, "parallel")
        self._done("start_parallel", out, grid=False)
        with rec.span("fabric.executor"):
            out = self._sweep(start, self._fabric())
        self._done("start_fabric", out, grid=False)

    def pass_ops(self, index: int) -> list[Op]:
        return [
            Op("grid_parallel", lambda: self._sweep(self.jobs, "parallel"),
               lambda out: self._done("grid_parallel", out)),
            Op("grid_fabric", lambda: self._sweep(self.jobs, self._fabric()),
               lambda out: self._done("grid_fabric", out)),
        ]

    def operation_metrics(self, medians):
        cells = len(self.jobs)
        return {
            "sweep_cells_per_s": cells / medians["grid_parallel"],
            "fabric_cells_per_s": cells / medians["grid_fabric"],
        }

    def _recompute(self, probe, i: int):
        """Cell ``i`` in-process, layer by layer; checked against the
        sweeps' value.  Returns the cell's span."""
        job = self.jobs[i]
        want = self.values[i]
        with probe.span("harness.cell") as sp:
            machine = build_machine(probe, job.spec["family"], job.spec["size"])
            result = measure_layers(probe, machine, job.spec["seed"], want["num_messages"])
        ok = want.get("family") == job.spec["family"] and fields_match(
            want, bandwidth_fields(machine, result, want["num_messages"])
        )
        self.tally.check(ok, f"cell {job.label()}: sweep value differs from in-process serial")
        return sp

    def verify(self, probe) -> None:
        if self.tally.check(self.values is not None, "no grid completed"):
            for i in range(0, len(self.jobs), VERIFY_EVERY):
                self._recompute(probe, i)

    def traced_round(self, rec, probe):
        from repro.harness import ResultStore

        if self.values is None:
            return {}
        cells = [self._recompute(probe, i) for i in range(len(self.jobs))]
        total = sum(c.duration for c in cells)
        # Worker time by layer over the whole grid; what the cell spends
        # outside the spanned layers stays ``harness.cell``.
        by_layer: dict[str, float] = {}
        for cell in cells:
            kids = probe.children(cell)
            for kid in kids:
                by_layer[kid.name] = by_layer.get(kid.name, 0.0) + kid.duration
            by_layer["harness.cell"] = by_layer.get("harness.cell", 0.0) + self_time(cell, kids)
        overhead = {}
        with rec.span("round"):
            for layer, name, executor in (
                ("harness.executor", "grid_parallel", "parallel"),
                ("fabric.executor", "grid_fabric", self._fabric()),
            ):
                with rec.span(layer) as sp:
                    out = self._sweep(self.jobs, executor)
                self._done(name, out)
                workers = _workers(out[0])
                rec.graft(sp, [(name, t / workers, {}) for name, t in by_layer.items()])
                overhead[layer] = 1.0 - total / (sp.duration * workers)

        store = ResultStore(tempfile.mkdtemp(prefix="store-", dir=self.scratch))
        puts, gets = [], []
        for job, value in zip(self.jobs, self.values):
            t0 = time.perf_counter()
            store.put(job, value)
            t1 = time.perf_counter()
            hit, got = store.get(job)
            t2 = time.perf_counter()
            self.tally.check(hit and got == value, f"store round trip of {job.label()}")
            puts.append(t1 - t0)
            gets.append(t2 - t1)
        shutil.rmtree(store.root, ignore_errors=True)
        return {
            "harness.cell_ms": statistics.median(c.duration for c in cells) * 1e3,
            "harness.overhead_ratio": overhead["harness.executor"],
            "fabric.overhead_ratio": overhead["fabric.executor"],
            "store.put_ms": statistics.median(puts) * 1e3,
            "store.get_us": statistics.median(gets) * 1e6,
        }
