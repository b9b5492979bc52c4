"""Percentile summaries for benchmark samples.

A timing is reported as its median plus the highest percentile that
still has at least ten samples beyond it, together with the sample
count.  Below twenty samples no tail percentile qualifies, so only the
median is given.  Tail percentiles use the nearest-rank definition, so
every reported tail is a latency some request actually saw.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = ["MIN_BEYOND", "nearest_rank", "quartiles", "summarize", "tail_quantile"]

#: Samples that must lie beyond a quoted tail percentile.
MIN_BEYOND = 10

# Candidate tail percentiles, lowest first; exact fractions keep the
# rank arithmetic free of float rounding (0.9 * 100 is not 90 in floats).
_LADDER = tuple(
    Fraction(q) for q in ("3/4", "9/10", "95/100", "99/100", "999/1000", "9999/10000")
)


def _rank(q: Fraction, n: int) -> int:
    """1-based nearest rank of quantile ``q`` among ``n`` sorted samples."""
    return max(1, math.ceil(q * n))


def nearest_rank(sorted_values: Sequence[float], q: Fraction | float) -> float:
    """The smallest sample with at least a ``q`` share of samples at or below it."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(Fraction(q), len(sorted_values)) - 1]


def tail_quantile(n: int) -> Fraction | None:
    """The highest ladder quantile with at least ``MIN_BEYOND`` samples beyond it."""
    best = None
    for q in _LADDER:
        if n - _rank(q, n) >= MIN_BEYOND:
            best = q
    return best


def _label(q: Fraction) -> str:
    return "p" + f"{float(q) * 100:.2f}".rstrip("0").rstrip(".")


def summarize(values: Iterable[float]) -> dict:
    """``{"n", "p50", "tail_pct", "tail"}`` for a non-empty sample.

    ``tail_pct`` names the quoted percentile (``"p99"``, ...) and is
    ``None``, like ``tail``, when there are too few samples for one.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    q = tail_quantile(len(xs))
    return {
        "n": len(xs),
        "p50": statistics.median(xs),
        "tail_pct": _label(q) if q is not None else None,
        "tail": nearest_rank(xs, q) if q is not None else None,
    }


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as ``statistics.quantiles``
    gives them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
