"""Seed-replication harness for stochastic measurements.

Bandwidth measurements, quasi-symmetric samples, Valiant routing and
random machine constructions are all seeded; :func:`replicate` runs a
seeded measurement across many seeds and summarises mean / std /
extremes, so benches and users can state results with dispersion rather
than a single draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.util import check_positive_int

__all__ = ["Replication", "replicate"]


@dataclass(frozen=True)
class Replication:
    """Summary of one measurement replicated across seeds."""

    values: tuple[float, ...]

    @property
    def n(self) -> int:
        """Number of replicates."""
        return len(self.values)

    @property
    def mean(self) -> float:
        """Sample mean."""
        return float(np.mean(self.values))

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1; 0 for a single replicate)."""
        if len(self.values) < 2:
            return 0.0
        return float(np.std(self.values, ddof=1))

    @property
    def min(self) -> float:
        """Smallest replicate."""
        return float(np.min(self.values))

    @property
    def max(self) -> float:
        """Largest replicate."""
        return float(np.max(self.values))

    @property
    def p50(self) -> float:
        """Median replicate (robust central tendency)."""
        return float(np.median(self.values))

    @property
    def ci95(self) -> float:
        """Half-width of the normal-approximation 95% confidence
        interval for the mean: ``1.96 * std / sqrt(n)``; 0.0 when fewer
        than two replicates make dispersion unmeasurable."""
        if len(self.values) < 2:
            return 0.0
        return float(1.96 * self.std / np.sqrt(len(self.values)))

    @property
    def cv(self) -> float:
        """Coefficient of variation (std / mean); dispersion at a glance.

        A degenerate all-zero replication has no dispersion, so its cv
        is 0.0; ``inf`` is reserved for genuine spread around a zero
        mean (values that cancel).
        """
        if self.mean:
            return self.std / self.mean
        return 0.0 if self.std == 0.0 else float("inf")

    def __str__(self) -> str:
        return (
            f"{self.mean:.3f} +/- {self.std:.3f} "
            f"(n={self.n}, ci95 {self.ci95:.3f}, "
            f"range [{self.min:.3f}, {self.max:.3f}])"
        )


def replicate(
    measurement: Callable[[int], float],
    num_seeds: int = 8,
    base_seed: int = 0,
    *,
    batch: bool = False,
) -> Replication:
    """Run ``measurement(seed)`` for ``num_seeds`` distinct seeds.

    The seeds are ``base_seed, base_seed + 1, ...`` so replications are
    themselves reproducible.

    ``batch=True`` instead calls ``measurement(seeds)`` **once** with
    the whole seed list and expects one value per seed back -- the
    in-process fast path for batched measurements such as
    :func:`repro.routing.measure_bandwidth_many`, which amortize shared
    setup and the simulator tick loop across seeds.  The values must
    match the per-seed call bit-for-bit (the batched measurements in
    this repo do).  Seeds worth fanning out over processes are sweep
    cells: run them as jobs through :func:`repro.harness.run_sweep`.
    """
    check_positive_int(num_seeds, "num_seeds")
    if batch:
        raw = measurement([base_seed + i for i in range(num_seeds)])
        values = tuple(float(v) for v in raw)
        if len(values) != num_seeds:
            raise ValueError(
                f"batch measurement returned {len(values)} values "
                f"for {num_seeds} seeds"
            )
        return Replication(values=values)
    values = tuple(float(measurement(base_seed + i)) for i in range(num_seeds))
    return Replication(values=values)
