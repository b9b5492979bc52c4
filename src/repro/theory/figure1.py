"""Figure 1: communication-induced vs load-induced slowdown.

The paper's Figure 1 plots two lower bounds on emulation time as the
host size ``m`` varies for a fixed guest size ``n``:

* the **load** curve ``S >= n / m`` (linear in 1/m), and
* the **bandwidth** curve ``S >= beta_G(n) / beta_H(m)``;

their crossover marks simultaneously the smallest possible slowdown and
the largest efficient host.  :func:`figure1_data` produces both series
numerically plus the exact symbolic crossover.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asymptotics import Bound
from repro.theory.host_size import max_host_size
from repro.theory.slowdown import symbolic_slowdown

__all__ = ["Figure1Data", "figure1_data"]


@dataclass(frozen=True)
class Figure1Data:
    """Both Figure-1 curves for one (guest, host-family, n) triple."""

    guest_key: str
    host_key: str
    n: int
    m_values: list[int]
    load_bounds: list[float]
    bandwidth_bounds: list[float]
    crossover_symbolic: Bound
    crossover_numeric: float

    def envelope(self) -> list[float]:
        """Pointwise max of the two curves: the true lower bound."""
        return [
            max(a, b) for a, b in zip(self.load_bounds, self.bandwidth_bounds)
        ]

    def rows(self) -> list[tuple[int, float, float, float]]:
        """(m, load, bandwidth, envelope) rows for table output."""
        return [
            (m, l, b, max(l, b))
            for m, l, b in zip(self.m_values, self.load_bounds, self.bandwidth_bounds)
        ]


def figure1_data(
    guest_key: str,
    host_key: str,
    n: int,
    m_values: list[int] | None = None,
    num_points: int = 12,
) -> Figure1Data:
    """Compute Figure 1 for guest size ``n`` and a sweep of host sizes."""
    if n < 4:
        raise ValueError(f"guest size must be >= 4, got {n}")
    if m_values is None:
        # Geometric sweep from 2 to n.
        m_values = sorted(
            {
                max(2, min(n, round(2 * (n / 2) ** (i / (num_points - 1)))))
                for i in range(num_points)
            }
        )
    bad = [m for m in m_values if not 2 <= m <= n]
    if bad:
        raise ValueError(f"host sizes out of [2, n]: {bad}")

    bound = symbolic_slowdown(guest_key, host_key)
    load = [n / m for m in m_values]
    bandwidth = [bound.evaluate(n, m) for m in m_values]

    crossover = max_host_size(guest_key, host_key)
    try:
        crossover_numeric = min(float(n), crossover.evaluate(n))
    except ValueError:
        crossover_numeric = float("nan")
    return Figure1Data(
        guest_key=guest_key,
        host_key=host_key,
        n=n,
        m_values=list(m_values),
        load_bounds=load,
        bandwidth_bounds=bandwidth,
        crossover_symbolic=crossover,
        crossover_numeric=crossover_numeric,
    )
