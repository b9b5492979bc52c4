"""Bisection-width estimates and the flux upper bound on bandwidth.

The classic flux argument: at most one message crosses each cut link per
tick, and under symmetric traffic about half of all messages must cross
a balanced cut, so ``beta(M) <= O(bisection(M))``.  Exact bisection is
NP-hard; :func:`bisection_width_upper` returns the best *balanced*
candidate cut found (spectral sweep + Kernighan-Lin refinement), which
upper-bounds the true bisection width.
"""

from __future__ import annotations

import networkx as nx

from repro.embedding.lower_bounds import candidate_cuts, cut_edges
from repro.topologies.base import Machine

__all__ = ["bisection_width_upper", "flux_beta_upper"]


def bisection_width_upper(machine: Machine) -> int:
    """Size of the best balanced cut found (>= true bisection width).

    Balanced means both sides have at least ``n // 3`` vertices (the
    1/3-2/3 convention).  Candidates come from the shared cut family;
    up to n = 4096, one Kernighan-Lin pass refines the best one.
    """
    n = machine.num_nodes
    best_side: set[int] | None = None
    best = None
    for side in candidate_cuts(machine):
        if min(len(side), n - len(side)) < n // 3:
            continue
        c = cut_edges(machine, side)
        if best is None or c < best:
            best, best_side = c, side
    if best_side is None:
        # Fall back to a halved vertex ordering.
        best_side = set(range(n // 2))
        best = cut_edges(machine, best_side)
    if n <= 4096:
        try:
            part = nx.algorithms.community.kernighan_lin_bisection(
                machine.graph,
                partition=(best_side, set(machine.graph.nodes()) - best_side),
                max_iter=4,
                seed=0,
            )
            refined = cut_edges(machine, set(part[0]))
            best = min(best, refined)
        except Exception:
            pass
    return int(best)


def flux_beta_upper(machine: Machine) -> float:
    """Flux upper bound: beta(M) <= ~2 * bisection(M).

    Derivation: a balanced cut with ``w`` links passes at most ``w``
    messages per tick, and a symmetric batch of ``m`` messages sends at
    least ``~m/2`` across it, so the delivery rate is at most ``~2w``.
    (Uses the *upper* bisection estimate, so this is a heuristic upper
    bound -- rigorous whenever the candidate family contains a true
    bisector, which it does for every structured family in the registry.)
    """
    return 2.0 * bisection_width_upper(machine)
