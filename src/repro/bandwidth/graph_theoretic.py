"""Graph-theoretic bandwidth: ``beta(H, T) = E(T) / C(H, T)``.

Minimum congestion ``C(H, T)`` is NP-hard, so we bracket it:

* **upper bound on C** (hence *lower* bound on beta): the congestion of a
  concrete shortest-path routing.  For complete (symmetric) traffic this
  is computed exactly in O(n^2) by the BFS-tree subtree trick: routing
  every source toward destination ``d`` along the deterministic next-hop
  tree loads each tree link with the size of the subtree hanging below
  it.
* **lower bound on C** (hence *upper* bound on beta): the best cut bound
  from :mod:`repro.embedding.lower_bounds`.

Both sides use the unordered-pair convention: ``E(K_n) = n(n-1)/2``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embedding.lower_bounds import congestion_lower_bound
from repro.obs import trace as obs
from repro.routing.tables import NextHopTables
from repro.topologies.base import Machine
from repro.traffic.multigraph import TrafficMultigraph

__all__ = [
    "BetaBracket",
    "routing_congestion",
    "beta_lower",
    "beta_upper",
    "beta_bracket",
    "numeric_slowdown_bound",
]


@dataclass(frozen=True)
class BetaBracket:
    """A rigorous interval around the graph-theoretic bandwidth."""

    machine_name: str
    lower: float
    upper: float
    congestion_upper: float
    congestion_lower: float
    traffic_edges: float

    @property
    def geometric_mid(self) -> float:
        """Geometric midpoint -- a reasonable point estimate of beta."""
        return float(np.sqrt(self.lower * self.upper))

    def __str__(self) -> str:
        return (
            f"beta({self.machine_name}) in [{self.lower:.3f}, {self.upper:.3f}]"
        )


def routing_congestion(
    machine: Machine, traffic: TrafficMultigraph | None = None
) -> int:
    """Congestion of deterministic shortest-path routing of ``traffic``.

    ``traffic=None`` means complete symmetric traffic (every unordered
    pair once), computed by the subtree trick: for each destination the
    BFS next-hop pointers form a tree, and the load a tree link carries
    is the number of sources below it.  Each unordered pair is counted
    twice (once per direction); the result is halved, which is still a
    valid congestion of a one-path-per-pair routing up to the +/-1 of
    direction asymmetry (and exact at Theta level).

    The complete-traffic case reduces the machine-shared tables'
    per-directed-edge loads (:meth:`NextHopTables.complete_loads`): it
    sums both directions of each link, takes the largest, and halves.
    """
    with obs.span("bandwidth.congestion"):
        tables = NextHopTables.shared(machine)
        if traffic is not None:
            loads: dict[tuple[int, int], int] = {}
            for (u, v), w in traffic.weights.items():
                path = tables.path(u, v)
                for a, b in zip(path, path[1:]):
                    key = (a, b) if a < b else (b, a)
                    loads[key] = loads.get(key, 0) + w
            return max(loads.values()) if loads else 0

        directed = tables.complete_loads()
        if machine.num_edges == 0:
            return 0
        # Pair each directed edge with its link: both directions (and
        # any parallel copies) share one (min, max) endpoint key.
        csr = machine.csr_adjacency()
        lo = np.minimum(csr.edge_src, csr.edge_dst).astype(np.int64)
        hi = np.maximum(csr.edge_src, csr.edge_dst).astype(np.int64)
        _, link = np.unique(lo * machine.num_nodes + hi, return_inverse=True)
        link_loads = np.zeros(int(link.max()) + 1, dtype=np.int64)
        np.add.at(link_loads, link, directed)
        # Ordered pairs were routed (every s->d); halve for unordered.
        return (int(link_loads.max()) + 1) // 2


def _beta(n: int, congestion: float) -> float:
    """``E(K_n) / C``: the bandwidth a complete-traffic congestion gives."""
    return (n * (n - 1) / 2) / congestion if congestion > 0 else float("inf")


def beta_lower(machine: Machine) -> float:
    """Lower bound on beta(H): complete-traffic edges over achieved congestion."""
    return _beta(machine.num_nodes, routing_congestion(machine))


def beta_upper(machine: Machine) -> float:
    """Upper bound on beta(H) from the best congestion cut bound."""
    return _beta(machine.num_nodes, congestion_lower_bound(machine))


def beta_bracket(machine: Machine) -> BetaBracket:
    """Rigorous [lower, upper] interval for the machine bandwidth beta(H)."""
    n = machine.num_nodes
    with obs.span("bandwidth.bracket"):
        c_up = routing_congestion(machine)
        c_low = congestion_lower_bound(machine)
    lower, upper = _beta(n, c_up), _beta(n, c_low)
    # The bracket is valid by construction; numeric ties can invert it by
    # rounding, so clamp.
    if lower > upper:
        lower, upper = upper, lower
    return BetaBracket(
        machine_name=machine.name,
        lower=lower,
        upper=upper,
        congestion_upper=float(c_up),
        congestion_lower=float(c_low),
        traffic_edges=n * (n - 1) / 2,
    )


def numeric_slowdown_bound(guest: Machine, host: Machine) -> float:
    """Theorem 1, certified: the guest's *lower* beta over the host's *upper* beta.

    The conservative direction, so the result is a true lower bound on
    the Theta-level ratio; only those two bracket halves are computed.
    """
    return beta_lower(guest) / beta_upper(host)
