"""Cut-based lower bounds on embedding congestion.

For *any* 1-to-1 embedding of a guest with ``n_G`` vertices and uniform
pair-multiplicity ``s`` (the ``K_{n,s}``-type traffic the paper's
bandwidth definition uses) into host ``H``: take any vertex cut
``(S, V \\ S)`` of the host.  At least ``a = max(0, n_G - |V \\ S|)``
guest vertices land inside ``S`` and at least ``b = max(0, n_G - |S|)``
outside, so at least ``s * max(a, b) * (n_G - max(a, b))`` guest edges
must cross the cut, giving

    C(H, G)  >=  s * a' * (n_G - a') / cut_edges(S),   a' = max(a, b).

Maximising over a family of candidate cuts (spectral sweep cuts plus BFS
balls) yields the congestion lower bound used for the lower half of the
bandwidth bracket.  For ``n_G = |H|`` and a balanced cut this is the
classic ``n^2 / (4 * bisection)`` flux bound.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.obs import trace as obs
from repro.topologies.base import Machine
from repro.util.quiet import quiet_numerics

__all__ = [
    "candidate_cuts",
    "cut_edges",
    "cut_congestion_bound",
    "congestion_lower_bound",
]


def candidate_cuts(machine: Machine) -> list[set[int]]:
    """Generate candidate vertex cuts: spectral sweep + BFS balls.

    Returns a list of at most ten vertex sets ``S`` (one side of each cut).
    """
    g = machine.graph
    n = machine.num_nodes
    cuts: list[set[int]] = []

    # Spectral sweep: sort by Fiedler vector, take prefixes.
    order: list[int]
    try:
        with quiet_numerics():
            fiedler = np.asarray(nx.fiedler_vector(g, method="lobpcg", seed=0))
        order = [int(v) for v in np.argsort(fiedler, kind="stable")]
    except Exception:
        order = list(range(n))
    sweep_points = sorted(
        {max(1, n // 8), max(1, n // 4), max(1, (3 * n) // 8), max(1, n // 2)}
    )
    for p in sweep_points:
        cuts.append(set(order[:p]))

    # BFS balls around a few spread-out roots.
    roots = [0, n // 3, (2 * n) // 3]
    for r in roots:
        dist = nx.single_source_shortest_path_length(g, r)
        radius = max(dist.values())
        for frac in (0.25, 0.5):
            lim = max(1, int(radius * frac))
            ball = {v for v, d in dist.items() if d <= lim}
            if 0 < len(ball) < n:
                cuts.append(ball)

    # Dedup, keep proper cuts.
    seen: set[frozenset[int]] = set()
    out = []
    for s in cuts:
        f = frozenset(s)
        if 0 < len(f) < n and f not in seen:
            seen.add(f)
            out.append(set(f))
    return out


def cut_edges(machine: Machine, side: set[int]) -> int:
    """Number of machine links with exactly one end in ``side``."""
    return sum(1 for u, v in machine.graph.edges() if (u in side) != (v in side))


def cut_congestion_bound(
    machine: Machine, n_guest: int, side: set[int], multiplicity: int = 1
) -> float:
    """Congestion lower bound from one host cut (uniform all-pairs traffic)."""
    n = machine.num_nodes
    if not 0 < len(side) < n:
        raise ValueError("cut side must be a proper nonempty subset")
    if n_guest > n:
        raise ValueError(f"guest ({n_guest}) larger than host ({n})")
    links = cut_edges(machine, side)
    if links == 0:
        raise ValueError("host is disconnected across the given cut")
    inside_cap = len(side)
    outside_cap = n - inside_cap
    a = max(0, n_guest - outside_cap)  # guest vertices forced inside S
    b = max(0, n_guest - inside_cap)  # forced outside S
    forced = max(a, b)
    crossing = multiplicity * forced * (n_guest - forced)
    return crossing / links


def congestion_lower_bound(
    machine: Machine,
    n_guest: int | None = None,
    multiplicity: int = 1,
) -> float:
    """Best congestion lower bound over the candidate-cut family.

    Defaults to ``n_guest = |H|`` -- the 1-to-1 complete-traffic case
    defining the machine bandwidth beta(H).
    """
    if n_guest is None:
        n_guest = machine.num_nodes
    best = 0.0
    with obs.span("bandwidth.cuts"):
        for side in candidate_cuts(machine):
            best = max(
                best, cut_congestion_bound(machine, n_guest, side, multiplicity)
            )
    return best
