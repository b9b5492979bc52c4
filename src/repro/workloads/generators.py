"""Traffic generators that exist only for the workload registry.

The paper-era distributions (symmetric, quasi-symmetric, permutation,
transpose, bit-reversal, hot-spot) live in
:mod:`repro.traffic.distribution`; this module adds the post-paper
scenarios the registry opens up -- scale-free pair weights and the
on-off gate used by the bursty workload.
"""

from __future__ import annotations

import numpy as np

from repro.traffic.distribution import TrafficDistribution, off_diagonal_codes
from repro.util import check_positive_int

__all__ = ["gate_mask", "scale_free_traffic"]


def scale_free_traffic(n: int, alpha: float = 1.0) -> TrafficDistribution:
    """Preferential-attachment-style traffic: pair weight ``w_s * w_d``
    with node popularity ``w_i = (i + 1)^-alpha``.

    ``alpha = 0`` degenerates to the symmetric distribution; larger
    ``alpha`` concentrates traffic on the low-numbered "hub" nodes, the
    heavy-tailed regime of scale-free network traffic studies.  Fully
    deterministic (rank order is the node order), so the workload is
    content-hashable without a construction seed.
    """
    check_positive_int(n, "n", minimum=2)
    if not 0 <= alpha <= 8:
        raise ValueError(f"alpha must be in [0, 8], got {alpha}")
    w = np.arange(1, n + 1, dtype=float) ** -alpha
    codes = off_diagonal_codes(n)
    s, d = np.divmod(codes, n)
    return TrafficDistribution.from_codes(
        n, codes, w[s] * w[d], name=f"scale_free({alpha})"
    )


def gate_mask(duration: int, on: int, off: int) -> np.ndarray:
    """Boolean on-off envelope of length ``duration``: ``on`` open ticks,
    then ``off`` closed ticks, repeating (phase starts open)."""
    check_positive_int(duration, "duration")
    check_positive_int(on, "on")
    check_positive_int(off, "off")
    period = np.arange(duration, dtype=np.int64) % (on + off)
    return period < on
