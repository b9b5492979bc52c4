"""k-dimensional meshes, tori, and X-grids.

These are the Table-1 guest families.  All three share bandwidth
beta = Theta(n^{(k-1)/k}) (a face-perpendicular cut has that many links)
and diameter Theta(n^{1/k}); the X-grid adds the diagonal links of each
unit cell, which changes constants only.
"""

from __future__ import annotations

import itertools

import networkx as nx

from repro.topologies.base import Machine
from repro.util import check_positive_int

__all__ = ["build_mesh", "build_torus", "build_xgrid", "mesh_side_for_size"]


def mesh_side_for_size(n_target: int, k: int, minimum: int = 2) -> int:
    """Side length, at least ``minimum``, whose k-dim mesh is closest to
    ``n_target`` nodes."""
    check_positive_int(n_target, "n_target")
    check_positive_int(k, "k")
    side = max(minimum, round(n_target ** (1.0 / k)))
    best = min(
        (s for s in (side - 1, side, side + 1) if s >= minimum),
        key=lambda s: abs(s**k - n_target),
    )
    return best


def build_mesh(side: int, k: int = 2) -> Machine:
    """k-dimensional mesh of the given side (n = side**k processors)."""
    check_positive_int(side, "side", minimum=2)
    check_positive_int(k, "k", minimum=1)
    g = nx.grid_graph(dim=[side] * k, periodic=False)
    return Machine(g, family="mesh", params={"side": side, "k": k})


def build_torus(side: int, k: int = 2) -> Machine:
    """k-dimensional torus (mesh with wraparound links)."""
    check_positive_int(side, "side", minimum=3)
    check_positive_int(k, "k", minimum=1)
    g = nx.grid_graph(dim=[side] * k, periodic=True)
    return Machine(g, family="torus", params={"side": side, "k": k})


def build_xgrid(side: int, k: int = 2) -> Machine:
    """k-dimensional X-grid: the mesh plus all diagonals of each unit cell.

    Every pair of cells whose coordinates differ by at most 1 in each
    dimension (and by exactly 1 somewhere) is linked -- the king-graph
    generalisation used by the paper's Table 1 host list.
    """
    check_positive_int(side, "side", minimum=2)
    check_positive_int(k, "k", minimum=1)
    g = nx.Graph()
    offsets = [
        off
        for off in itertools.product((-1, 0, 1), repeat=k)
        if any(o != 0 for o in off)
    ]
    for coord in itertools.product(range(side), repeat=k):
        g.add_node(coord)
        for off in offsets:
            nbr = tuple(c + o for c, o in zip(coord, off))
            if all(0 <= x < side for x in nbr):
                g.add_edge(coord, nbr)
    return Machine(g, family="xgrid", params={"side": side, "k": k})
