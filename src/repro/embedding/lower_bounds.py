"""Cut-based lower bounds on embedding congestion.

For *any* 1-to-1 embedding of a guest with ``n_G`` vertices and uniform
pair-multiplicity ``s`` (the ``K_{n,s}``-type traffic the paper's
bandwidth definition uses) into host ``H``: take any vertex cut
``(S, V \\ S)`` of the host.  At least ``a = max(0, n_G - |V \\ S|)``
guest vertices land inside ``S`` and at least ``b = max(0, n_G - |S|)``
outside, so at least ``s * max(a, b) * (n_G - max(a, b))`` guest edges
must cross the cut, giving

    C(H, G)  >=  s * a' * (n_G - a') / cut_edges(S),   a' = max(a, b).

The numerator depends only on ``|S|``, so the best bound over a family
of cuts needs, for each size ``p``, only the fewest links any cut of
that size crosses: the machine's :func:`cut_profile`.  Its cuts are
every prefix of a few vertex orders:

* from every root (an evenly spaced subset of ``MAX_ROOTS`` above that
  size), the BFS order (distance, then node id) and the postorder of
  the root's next-hop tree (children in ascending id) -- balls, and the
  subtrees that give tree-like families their one-link cuts;
* one order per integer coordinate of tuple labels -- the hyperplane
  and subcube cuts of meshes, tori and hypercubes;
* one approximate Fiedler order, from power iterations of
  ``2 * max_degree * I - L`` (no eigensolver).

A link whose ends sit at positions ``a < b`` of an order crosses
exactly the prefixes of sizes ``a+1..b``, so a difference array and a
running sum give every prefix's cut in O(E + n) per order.  The
per-root sweeps run in ``routing/_kernel.c`` when the compiled provider
works; otherwise the NumPy code here, which is their specification,
runs them over the dense next-hop tables.  For ``n_G = |H|`` and a
balanced cut the bound is the classic ``n^2 / (4 * bisection)`` flux
bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.obs import trace as obs
from repro.routing.tables import NextHopTables
from repro.topologies.base import Machine

__all__ = [
    "CutProfile",
    "MAX_ROOTS",
    "cut_congestion_bound",
    "cut_edges",
    "cut_profile",
    "congestion_lower_bound",
    "link_ends",
    "order_positions",
    "prefix_crossings",
    "prefix_side",
]

#: Above this many processors the per-root orders use this many evenly
#: spaced roots, which keeps the C sweeps at n = 4096 near a third of a
#: dense table build.
MAX_ROOTS = 1024

_FIEDLER_ITERATIONS = 300

# (orders x links) cells swept per bincount, so its int64 index arrays
# stay near 32 MB.
_SWEEP_CELLS = 4_000_000


@dataclass(frozen=True)
class CutProfile:
    """The fewest links crossed by a swept cut of each size.

    ``min_cut[p]`` (int64, ``0 < p < n``) is the fewest links leaving
    any swept prefix of ``p`` vertices; ``witness[p]`` (int32) numbers
    the first order that reaches it, in :func:`order_positions`' order.
    Entries 0 and ``n`` are 0 and -1: no cut.
    """

    min_cut: np.ndarray
    witness: np.ndarray


def cut_edges(machine: Machine, side: set[int]) -> int:
    """Number of machine links with exactly one end in ``side``."""
    csr = machine.csr_adjacency()
    inside = np.zeros(machine.num_nodes, dtype=bool)
    inside[np.fromiter(side, dtype=np.int64, count=len(side))] = True
    # Each link is two CSR slots, one per direction.
    return int(np.count_nonzero(inside[csr.edge_src] != inside[csr.indices])) // 2


def _roots(n: int) -> np.ndarray:
    if n <= MAX_ROOTS:
        return np.arange(n, dtype=np.int64)
    return np.arange(MAX_ROOTS, dtype=np.int64) * n // MAX_ROOTS


def link_ends(machine: Machine) -> tuple[np.ndarray, np.ndarray]:
    """Both ends of every link, each link once."""
    csr = machine.csr_adjacency()
    once = csr.edge_src < csr.indices
    return csr.edge_src[once], csr.indices[once]


def prefix_crossings(
    pos: np.ndarray, u: np.ndarray, v: np.ndarray, weight: np.ndarray | None = None
) -> np.ndarray:
    """Weight of the edges ``(u, v)`` crossing each prefix of each order.

    ``pos`` is a ``(k, n)`` array of vertex positions, one order per
    row; returns ``(k, n + 1)`` int64 whose ``[i, p]`` entry is the
    weight (default 1 each) of edges with one end among the first ``p``
    vertices of order ``i``.
    """
    k, n = pos.shape
    out = np.empty((k, n + 1), dtype=np.int64)
    step = max(1, _SWEEP_CELLS // max(1, len(u)))
    for lo in range(0, k, step):
        block = pos[lo : lo + step]
        a, b = block[:, u], block[:, v]
        # Row i's difference array occupies slots i*(n+1) .. i*(n+1)+n.
        base = (np.arange(len(block), dtype=np.int64) * (n + 1))[:, None]
        first = (np.minimum(a, b) + 1 + base).ravel()
        past = (np.maximum(a, b) + 1 + base).ravel()
        w = None if weight is None else np.broadcast_to(weight, a.shape).ravel()
        size = len(block) * (n + 1)
        diff = np.bincount(first, w, minlength=size) - np.bincount(
            past, w, minlength=size
        )
        out[lo : lo + step] = np.cumsum(diff.reshape(len(block), n + 1), axis=1)
    return out


def _root_positions(
    dist: np.ndarray, parent: np.ndarray, roots: np.ndarray
) -> np.ndarray:
    """Positions in the two orders of each root, interleaved.

    ``dist[i]`` holds every node's distance from ``roots[i]`` and
    ``parent[i]`` its next hop toward it (the root's is itself).  Row
    ``2i`` of the result is the BFS order (distance, then node id) and
    row ``2i + 1`` the postorder of the next-hop tree, children in
    ascending id: the layout ``cut_sweeps`` in ``_kernel.c`` reproduces.
    """
    r, n = dist.shape
    rows = np.arange(r)
    out = np.empty((2 * r, n), dtype=np.int32)
    order = np.argsort(dist, axis=1, kind="stable")
    out[0::2][rows[:, None], order] = np.arange(n, dtype=np.int32)

    # Subtree sizes: each BFS level, deepest first, hands its sizes up.
    up = (parent + (rows * n)[:, None]).ravel()
    size = np.ones(r * n, dtype=np.int64)
    by_level = np.argsort(dist.ravel(), kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(dist.ravel()))))
    for level in range(len(bounds) - 2, 0, -1):
        nodes = by_level[bounds[level] : bounds[level + 1]]
        np.add.at(size, up[nodes], size[nodes])

    # A child's block starts after its smaller-id siblings' blocks.
    key = parent.astype(np.int64)
    key[rows, roots] = n  # the root is nobody's child
    sib = np.argsort(key, axis=1, kind="stable")
    sizes = size.reshape(r, n)[rows[:, None], sib]
    before = np.cumsum(sizes, axis=1) - sizes
    keys = key[rows[:, None], sib]
    new_parent = np.ones((r, n), dtype=bool)
    new_parent[:, 1:] = keys[:, 1:] != keys[:, :-1]
    offset = np.empty((r, n), dtype=np.int64)
    offset[rows[:, None], sib] = before - np.maximum.accumulate(
        np.where(new_parent, before, 0), axis=1
    )

    # Block start = the offsets summed up the tree (pointer jumping).
    start = offset.ravel()
    while np.any(up[up] != up):
        start = start + start[up]
        up = up[up]
    out[1::2] = (start + size - 1).reshape(r, n)
    return out


def _extra_positions(machine: Machine) -> np.ndarray:
    """Positions in the label-coordinate orders and the Fiedler order."""
    n = machine.num_nodes
    labels = [machine.labels[v] for v in range(n)]
    orders = []
    if all(isinstance(label, tuple) for label in labels):
        for i in range(min(len(label) for label in labels)):
            coord = np.array([label[i] for label in labels])
            if coord.dtype.kind == "i":
                orders.append(np.argsort(coord, kind="stable"))
    orders.append(_fiedler_order(machine))
    out = np.empty((len(orders), n), dtype=np.int32)
    out[np.arange(len(orders))[:, None], np.asarray(orders)] = np.arange(
        n, dtype=np.int32
    )
    return out


def _fiedler_order(machine: Machine) -> np.ndarray:
    """Vertices sorted by an approximate Fiedler vector.

    Power iterations of ``2 * max_degree * I - L`` with the constant
    vector projected out, started from the BFS distances to node 0.
    Every order gives valid cuts; convergence only tightens them.
    """
    csr = machine.csr_adjacency()
    neighbours = csr.indices.astype(np.intp)
    rows = csr.indptr[:-1].astype(np.intp)
    degree = csr.degrees().astype(np.float64)
    shift = 2.0 * degree.max() - degree
    x = NextHopTables.shared(machine).distance_array(0).astype(np.float64)
    for _ in range(_FIEDLER_ITERATIONS):
        x -= x.mean()
        norm = np.sqrt(x @ x)
        if norm == 0:  # x was all in the kernel (a single link: n = 2)
            break
        x /= norm
        x = shift * x + np.add.reduceat(x.take(neighbours), rows)
    return np.argsort(x - x.mean(), kind="stable")


def order_positions(machine: Machine) -> Iterator[np.ndarray]:
    """Every swept order's vertex positions, in ``(k, n)`` int32 chunks.

    Chunks come in witness order: the per-root orders (two per root,
    root-chunked over the dense next-hop tables), then the label and
    Fiedler orders.
    """
    n = machine.num_nodes
    dense = NextHopTables.shared(machine).ensure_dense()
    indices = machine.csr_adjacency().indices
    roots = _roots(n)
    step = max(1, (1 << 20) // n)
    for lo in range(0, len(roots), step):
        chunk = roots[lo : lo + step]
        parent = indices[dense.next_eid[:, chunk].T]
        parent[np.arange(len(chunk)), chunk] = chunk
        yield _root_positions(dense.dist[chunk], parent, chunk)
    yield _extra_positions(machine)


def _fold(min_cut, witness, chunks, links, first_id: int) -> None:
    """Lower ``min_cut`` to each chunk's prefix cuts; earlier ids win ties."""
    n = len(min_cut) - 1
    for pos in chunks:
        cuts = prefix_crossings(pos, *links)[:, 1:n]
        best = cuts.argmin(axis=0)
        low = cuts[best, np.arange(n - 1)]
        better = np.flatnonzero(low < min_cut[1:n])
        min_cut[better + 1] = low[better]
        witness[better + 1] = best[better] + first_id
        first_id += len(pos)


def cut_profile(machine: Machine) -> CutProfile:
    """The machine's :class:`CutProfile`, computed once and cached."""
    profile = machine.__dict__.get("_cut_profile")
    if profile is not None:
        return profile
    # compiled.py imports the routing engine; resolve the provider here.
    from repro.routing.compiled import get_provider

    n = machine.num_nodes
    min_cut = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
    witness = np.full(n + 1, -1, dtype=np.int32)
    if n > 1:  # a single processor has no cut
        provider = get_provider()
        if provider is not None:
            roots = _roots(n)
            min_cut, witness = provider.cuts(machine.csr_adjacency(), roots)
            extra = [_extra_positions(machine)]
            _fold(min_cut, witness, extra, link_ends(machine), 2 * len(roots))
        else:
            _fold(min_cut, witness, order_positions(machine), link_ends(machine), 0)
    min_cut[[0, n]] = 0
    profile = machine.__dict__["_cut_profile"] = CutProfile(min_cut, witness)
    return profile


def prefix_side(machine: Machine, p: int) -> set[int]:
    """The swept vertex set of size ``p`` that crosses ``min_cut[p]`` links."""
    n = machine.num_nodes
    order = int(cut_profile(machine).witness[p])
    roots = _roots(n)
    if order < 2 * len(roots):
        root = int(roots[order // 2])
        tables = NextHopTables.shared(machine)
        pos = _root_positions(
            tables.distance_array(root)[None, :],
            tables.next_array(root)[None, :],
            np.array([root]),
        )[order % 2]
    else:
        pos = _extra_positions(machine)[order - 2 * len(roots)]
    return set(np.flatnonzero(pos < p).tolist())


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
    """Best congestion lower bound over the cut profile's cut sizes.

    Defaults to ``n_guest = |H|`` -- the 1-to-1 complete-traffic case
    defining the machine bandwidth beta(H).
    """
    n = machine.num_nodes
    if n_guest is None:
        n_guest = n
    if n_guest > n:
        raise ValueError(f"guest ({n_guest}) larger than host ({n})")
    if n == 1:
        return 0.0  # no cut
    with obs.span("bandwidth.cuts"):
        links = cut_profile(machine).min_cut[1:n]
    # cut_congestion_bound's formula for every side size p at once.
    p = np.arange(1, n)
    forced = np.maximum(np.maximum(n_guest - (n - p), n_guest - p), 0)
    crossing = multiplicity * forced * (n_guest - forced)
    return float(np.max(crossing / links))
