"""Bisection-width estimates and the flux upper bound on bandwidth.

The classic flux argument: at most one message crosses each cut link per
tick, and under symmetric traffic about half of all messages must cross
a balanced cut, so ``beta(M) <= O(bisection(M))``.  Exact bisection is
NP-hard; :func:`bisection_width_upper` returns the best *balanced* cut
found (the machine's cut profile, then Kernighan-Lin refinement), which
upper-bounds the true bisection width.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.embedding.lower_bounds import cut_edges, cut_profile, prefix_side
from repro.topologies.base import Machine

__all__ = ["bisection_width_upper", "flux_beta_upper"]


def bisection_width_upper(machine: Machine) -> int:
    """Size of the best balanced cut found (>= true bisection width).

    Balanced means both sides have at least ``n // 3`` vertices (the
    1/3-2/3 convention).  The fewest links over the balanced sizes of
    the cut profile is the start; up to n = 4096, one Kernighan-Lin
    pass refines the side that reaches it.
    """
    n = machine.num_nodes
    if n < 2:
        return 0
    lo = max(1, n // 3)
    sizes = np.arange(lo, n - lo + 1)
    links = cut_profile(machine).min_cut[sizes]
    # The fewest links; among equals, the side nearest n / 2.
    p = int(sizes[np.lexsort((np.abs(2 * sizes - n), links))[0]])
    side = prefix_side(machine, p)
    best = cut_edges(machine, side)
    if n <= 4096:
        part = nx.algorithms.community.kernighan_lin_bisection(
            machine.graph,
            partition=(side, set(machine.graph.nodes()) - side),
            max_iter=4,
            seed=0,
        )
        best = min(best, cut_edges(machine, set(part[0])))
    return int(best)


def flux_beta_upper(machine: Machine) -> float:
    """Flux upper bound: beta(M) <= ~2 * bisection(M).

    Derivation: a balanced cut with ``w`` links passes at most ``w``
    messages per tick, and a symmetric batch of ``m`` messages sends at
    least ``~m/2`` across it, so the delivery rate is at most ``~2w``.
    (Uses the *upper* bisection estimate, so this is a heuristic upper
    bound -- rigorous whenever the cut profile's sweeps contain a true
    bisector, which they do for every structured family in the registry.)
    """
    return 2.0 * bisection_width_upper(machine)
