"""Every metric the benchmark reports, with its unit, direction and bound.

Three groups:

* ``END_TO_END`` -- reported by every workload, so a gate can compare
  any workload's run with its parent's; ``BENCHMARK.json`` lists exactly
  these.  ``bound`` is the share of the parent's median by which the
  metric may worsen before a change counts as a regression.
* ``OPERATION`` -- the wall time or rate of each operation a workload
  runs, printed with every run and gated by ``compare.py`` with a 10%
  bound; ``FAILED_RATIO`` may not rise at all.
* ``PER_LAYER`` -- from the traced round; no bound.  ``BENCHMARK.json``
  lists these too.  Each layer's ``share.*`` is its self time over the
  traced round's wall time; the ``*_ms`` costs are medians per call.
  Every workload measures each of them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CALL_COSTS",
    "END_TO_END",
    "FAILED_RATIO",
    "LAYERS",
    "Metric",
    "OPERATION",
    "PER_LAYER",
    "gated",
]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"
    bound: float | None = None

    def as_json(self) -> dict:
        out = {"name": self.name, "unit": self.unit, "better": self.better}
        if self.bound is not None:
            out["bound"] = self.bound
        return out


#: All three are speed-adjusted (see ``common.SpeedProbe``).  Their bound
#: is three times the spread of ten adjusted runs on a shared 2-CPU box
#: in an ordinary stretch (up to ~9%); noisy stretches reached 12-15%.
#: A bound inside that would flag noise as a regression.
END_TO_END = (
    # Median of three set-ups in one run.
    Metric("setup_s", "s", "lower", 0.25),
    # One pass over the workload's fixed operations: the sum over the
    # pass of each operation's median wall time.
    Metric("cycle_s", "s", "lower", 0.25),
    # Geometric mean of the per-operation medians, so that each kind of
    # operation weighs the same however long it takes.
    Metric("op_geomean_ms", "ms", "lower", 0.25),
)

FAILED_RATIO = Metric("failed_ratio", "ratio", "lower", 0.0)

OPERATION = {
    "cli_cold": (
        Metric("cli_bandwidth_s", "s", "lower", 0.10),
        Metric("cli_saturation_s", "s", "lower", 0.10),
        Metric("cli_emulate_s", "s", "lower", 0.10),
    ),
    "routing_warm": (
        Metric("replicate_s", "s", "lower", 0.10),
        Metric("saturation_sparse_s", "s", "lower", 0.10),
        Metric("saturation_dense_s", "s", "lower", 0.10),
    ),
    "sweep_grid": (
        Metric("sweep_cells_per_s", "cells/s", "higher", 0.10),
        Metric("fabric_cells_per_s", "cells/s", "higher", 0.10),
    ),
    "service": (
        Metric("service_warm_rps", "req/s", "higher", 0.10),
        Metric("service_cold_ms", "ms", "lower", 0.10),
    ),
}

#: Layers that every workload's traced round calls: each gets a per-call
#: cost and a share in ``PER_LAYER``.  Named after the program's modules.
CALL_COSTS = (
    "topologies.build",
    "routing.tables",
    "traffic.build",
    "traffic.sample",
    "routing.plan",
    "routing.route",
)

#: Every layer of the ledger.  The ones past ``CALL_COSTS`` work in some
#: workloads only, so their shares are recorded and printed but are not
#: in ``PER_LAYER``, which every workload must report with a measured value.
LAYERS = CALL_COSTS + (
    "cli.import",
    "bandwidth.bracket",
    "emulation.run",
    "harness.executor",
    "fabric.executor",
    "harness.cell",
    "service.handle",
    "service.http",
)

PER_LAYER = (
    tuple(Metric(f"{layer}_ms", "ms") for layer in CALL_COSTS)
    + (
        Metric("routing.pkts_per_s", "pkts/s", "higher"),
        Metric("routing.ticks", "count"),
    )
    + tuple(Metric(f"share.{layer}", "ratio") for layer in CALL_COSTS)
    + (
        Metric("bench.unattributed_ratio", "ratio"),
        Metric("bench.trace_overhead_ratio", "ratio"),
    )
)


def gated(workload: str) -> tuple[Metric, ...]:
    """Every metric ``compare.py`` judges for ``workload``."""
    return END_TO_END + OPERATION[workload] + (FAILED_RATIO,)
