"""Empirical bottleneck-freeness (the Theorem-1 side condition).

A machine is *bottleneck-free* when no quasi-symmetric distribution (on
any ``m <= |H|`` of its processors) achieves a delivery rate more than a
constant factor above the symmetric rate ``beta(H)``.  The test samples
random quasi-symmetric distributions at several support sizes, measures
each rate on the simulator, and reports the worst ratio.

The paper notes (without proof) that Tree, X-Tree, Mesh, Butterfly,
Shuffle-Exchange and de Bruijn are all bottleneck-free; the Table-4
bench confirms the measured ratios stay O(1) across sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.routing.measure import measure_bandwidth
from repro.topologies.base import Machine
from repro.traffic.distribution import TrafficDistribution, quasi_symmetric_traffic
from repro.util import check_positive_int, rng_from_seed

__all__ = ["BottleneckReport", "bottleneck_freeness"]


@dataclass(frozen=True)
class BottleneckReport:
    """Worst quasi-symmetric-to-symmetric rate ratio observed."""

    machine_name: str
    symmetric_rate: float
    worst_ratio: float
    trials: int

    def is_bottleneck_free(self, factor: float = 8.0) -> bool:
        """True when no sampled distribution beat beta(H) by > factor."""
        return self.worst_ratio <= factor

    def __str__(self) -> str:
        return (
            f"bottleneck({self.machine_name}): worst quasi/symmetric rate "
            f"ratio {self.worst_ratio:.2f} over {self.trials} trials"
        )


def _subset_quasi_symmetric(
    n: int, subset: np.ndarray, fraction: float, rng: np.random.Generator
) -> TrafficDistribution:
    """Quasi-symmetric traffic supported on ``subset`` of the n nodes."""
    m = len(subset)
    base = quasi_symmetric_traffic(m, fraction=fraction, seed=rng)
    s, d = np.divmod(base.codes, m)
    subset = np.asarray(subset, dtype=np.int64)
    return TrafficDistribution.from_codes(
        n, subset[s] * n + subset[d], base.weights, name=f"quasi_symmetric[m={m}]"
    )


def bottleneck_freeness(
    machine: Machine,
    trials: int = 6,
    messages_per_trial: int | None = None,
    seed: int | None = None,
) -> BottleneckReport:
    """Measure the worst quasi-symmetric rate against the symmetric rate.

    Trials alternate support sizes ``m in {n, n/2, n/4}`` (node subsets
    chosen uniformly) and support fractions ``{0.6, 0.9}`` of the m(m-1)
    pairs, covering the paper's "any quasi-symmetric distribution on
    m <= |H| nodes" quantifier in a sampled way.
    """
    check_positive_int(trials, "trials")
    rng = rng_from_seed(seed)
    n = machine.num_nodes
    sym = measure_bandwidth(
        machine, num_messages=messages_per_trial, seed=rng
    )
    worst = 0.0
    sizes = [n, max(4, n // 2), max(4, n // 4)]
    fractions = [0.6, 0.9]
    for trial in range(trials):
        m = sizes[trial % len(sizes)]
        frac = fractions[(trial // len(sizes)) % len(fractions)]
        subset = (
            np.arange(n) if m >= n else rng.choice(n, size=m, replace=False)
        )
        traffic = _subset_quasi_symmetric(n, subset, frac, rng)
        meas = measure_bandwidth(
            machine, traffic=traffic, num_messages=messages_per_trial, seed=rng
        )
        worst = max(worst, meas.rate / sym.rate if sym.rate > 0 else float("inf"))
    return BottleneckReport(
        machine_name=machine.name,
        symmetric_rate=sym.rate,
        worst_ratio=worst,
        trials=trials,
    )
