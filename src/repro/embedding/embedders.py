"""Vertex-map construction heuristics.

Minimum-congestion embedding is NP-hard; these embedders provide the
*upper* half of the bandwidth bracket.  All of them route guest edges
along host shortest paths (via :class:`NextHopTables`); they differ in
the vertex map:

* ``identity``  -- guest vertex i on host processor i (natural when the
  guest *is* a traffic pattern on the host's own processors);
* ``random``    -- a random injection (baseline);
* ``bfs``       -- guest and host both linearised by BFS, matched in
  order (locality-preserving on mesh-like pairs);
* ``spectral``  -- both sides linearised by their Fiedler vector and
  matched in order (the classic bisection-respecting heuristic).
"""

from __future__ import annotations

from typing import Hashable

import networkx as nx
import numpy as np

from repro.embedding.embedding import Embedding
from repro.routing.tables import NextHopTables
from repro.topologies.base import Machine
from repro.util import rng_from_seed
from repro.util.quiet import quiet_numerics

__all__ = [
    "identity_embedding",
    "random_embedding",
    "bfs_embedding",
    "spectral_embedding",
]


def _route_edges(
    host: Machine,
    guest_edges: dict[tuple[Hashable, Hashable], int],
    vmap: dict[Hashable, int],
) -> Embedding:
    tables = NextHopTables.shared(host)
    paths = {
        (u, v): tables.path(vmap[u], vmap[v])
        for (u, v), w in guest_edges.items()
        if w > 0
    }
    return Embedding(host, guest_edges, vmap, paths)


def _guest_parts(guest) -> tuple[list, dict[tuple, int], nx.Graph]:
    """Normalise guest (nx.Graph or TrafficMultigraph) to nodes/edges/graph."""
    if isinstance(guest, nx.Graph):
        nodes = list(guest.nodes())
        edges = {(u, v): int(d.get("weight", 1)) for u, v, d in guest.edges(data=True)}
        return nodes, edges, guest
    # TrafficMultigraph duck-type
    nodes = list(range(guest.n))
    g = guest.to_networkx()
    return nodes, dict(guest.weights), g


def identity_embedding(host: Machine, guest) -> Embedding:
    """Map guest vertex i (in sorted order) to host processor i."""
    nodes, edges, _ = _guest_parts(guest)
    if len(nodes) > host.num_nodes:
        raise ValueError(
            f"guest has {len(nodes)} vertices but host only {host.num_nodes}"
        )
    order = sorted(nodes, key=repr)
    vmap = {g: i for i, g in enumerate(order)}
    return _route_edges(host, edges, vmap)


def random_embedding(
    host: Machine, guest, seed: int | np.random.Generator | None = None
) -> Embedding:
    """Uniformly random injective vertex map."""
    nodes, edges, _ = _guest_parts(guest)
    if len(nodes) > host.num_nodes:
        raise ValueError(
            f"guest has {len(nodes)} vertices but host only {host.num_nodes}"
        )
    rng = rng_from_seed(seed)
    targets = rng.permutation(host.num_nodes)[: len(nodes)]
    vmap = {g: int(t) for g, t in zip(sorted(nodes, key=repr), targets)}
    return _route_edges(host, edges, vmap)


def _bfs_order(graph: nx.Graph, start) -> list:
    seen = {start}
    order = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in sorted(graph.neighbors(v), key=repr):
                if w not in seen:
                    seen.add(w)
                    order.append(w)
                    nxt.append(w)
        frontier = nxt
    # Disconnected guests (traffic graphs can be): append leftovers.
    for v in sorted(graph.nodes(), key=repr):
        if v not in seen:
            order.append(v)
            seen.add(v)
    return order


def bfs_embedding(host: Machine, guest) -> Embedding:
    """Match BFS linearisations of guest and host."""
    nodes, edges, g = _guest_parts(guest)
    if len(nodes) > host.num_nodes:
        raise ValueError(
            f"guest has {len(nodes)} vertices but host only {host.num_nodes}"
        )
    guest_order = _bfs_order(g, sorted(nodes, key=repr)[0])
    host_order = _bfs_order(host.graph, 0)
    vmap = {gv: hv for gv, hv in zip(guest_order, host_order)}
    return _route_edges(host, edges, vmap)


def _fiedler_order(graph: nx.Graph) -> list:
    nodes = sorted(graph.nodes(), key=repr)
    n = len(nodes)
    if n <= 2 or graph.number_of_edges() == 0:
        return nodes
    try:
        with quiet_numerics():
            fiedler = nx.fiedler_vector(graph, method="lobpcg", seed=0)
    except Exception:
        return _bfs_order(graph, nodes[0])
    order = np.argsort(fiedler, kind="stable")
    ordered_nodes = list(graph.nodes())
    return [ordered_nodes[i] for i in order]


def spectral_embedding(host: Machine, guest) -> Embedding:
    """Match Fiedler-vector linearisations of guest and host."""
    nodes, edges, g = _guest_parts(guest)
    if len(nodes) > host.num_nodes:
        raise ValueError(
            f"guest has {len(nodes)} vertices but host only {host.num_nodes}"
        )
    guest_order = _fiedler_order(g)
    host_order = _fiedler_order(host.graph)
    vmap = {gv: hv for gv, hv in zip(guest_order, host_order)}
    return _route_edges(host, edges, vmap)
