"""All-pairs next-hop routing tables: lazy per destination, or dense.

Three build paths produce bit-identical tables:

* the original lazy path -- one Python BFS per destination, cached in a
  dict, cheap when a batch touches few distinct destinations;
* :meth:`NextHopTables.ensure_dense` -- all destinations at once.  When
  the compiled provider works (:mod:`repro.routing.compiled`), one C
  pass runs a BFS per destination over the machine's CSR adjacency and
  fills the tables.  Otherwise (no C compiler, or
  ``REPRO_COMPILED=off``) the NumPy build does: the distance matrix
  comes from ``scipy.sparse.csgraph``, and the next-hop choice is
  resolved for every (node, destination) pair with vectorized NumPy
  over the directed-edge arrays.  The NumPy build is also the spec the
  C pass is tested against.  The dense tables also record the *directed
  edge id* of each next hop, which is what the routing engines consume.

:meth:`NextHopTables.complete_loads` gives each directed link's load
when every ordered pair sends one packet along the next-hop trees, the
input of the β bracket's routing congestion.  The C pass computes it
with the tables; the NumPy path sweeps the dense tables level by level.

Tie-breaking is identical in every path: among the neighbours one step
closer to the destination (in ascending node order), a deterministic
pseudo-random hash keyed by ``(node, dest)`` picks one.  The hash spreads
load across parallel shortest paths; the lowest-index choice would
concentrate all traffic of rich families (hypercube, butterfly) onto a
few dimension-ordered links and bias the congestion estimate far from
the optimum.

Tables are expensive enough to build that every consumer (the simulator,
the graph-theoretic congestion bound, the embedders, the gamma
construction) should share one instance per machine; use
:meth:`NextHopTables.shared` for that.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.topologies.base import CSRAdjacency, Machine

__all__ = ["DenseTables", "NextHopTables"]

# Knuth-style multiplicative hash constants; must match in every build
# path, ``dense_tables`` in _kernel.c included (determinism contract, see
# docs/PERFORMANCE.md).
_HASH_A = 2654435761
_HASH_B = 1099087573
_HASH_MASK = 0x7FFFFFFF


@dataclass(frozen=True)
class DenseTables:
    """All-destinations tables: ``[node, dest]``-indexed int32 matrices."""

    dist: np.ndarray  # dist[u, d] = shortest-path distance u -> d
    next_hop: np.ndarray  # next_hop[u, d] = next node from u toward d
    next_eid: np.ndarray  # next_eid[u, d] = directed edge id of that hop


class NextHopTables:
    """Shortest-path next-hop and distance tables for one machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._csr = machine.csr_adjacency()
        self._next: dict[int, np.ndarray] = {}
        self._dist: dict[int, np.ndarray] = {}
        self._dense: DenseTables | None = None
        self._loads: np.ndarray | None = None

    @classmethod
    def shared(cls, machine: Machine) -> "NextHopTables":
        """The per-machine shared instance (cached on the machine)."""
        tables = machine.__dict__.get("_shared_tables")
        if tables is None:
            tables = cls(machine)
            machine.__dict__["_shared_tables"] = tables
        return tables

    # -- lazy per-destination build (the original executable spec) ----------

    def _build(self, dest: int) -> None:
        n = self.machine.num_nodes
        indptr, indices = self._csr.indptr, self._csr.indices
        nxt = np.full(n, -1, dtype=np.int32)
        dist = np.full(n, -1, dtype=np.int32)
        dist[dest] = 0
        nxt[dest] = dest
        frontier = [dest]
        while frontier:
            new_frontier: list[int] = []
            for v in frontier:
                dv = dist[v]
                for w in indices[indptr[v] : indptr[v + 1]]:
                    if dist[w] < 0:
                        dist[w] = dv + 1
                        new_frontier.append(int(w))
            frontier = new_frontier
        if np.any(dist < 0):
            raise RuntimeError("machine graph is disconnected")
        for v in range(n):
            if v == dest:
                continue
            dv = dist[v]
            cands = [
                int(w)
                for w in indices[indptr[v] : indptr[v + 1]]
                if dist[w] == dv - 1
            ]
            h = (v * _HASH_A + dest * _HASH_B) & _HASH_MASK
            nxt[v] = cands[h % len(cands)]
        self._next[dest] = nxt
        self._dist[dest] = dist

    # -- dense batched build -------------------------------------------------

    def ensure_dense(self) -> DenseTables:
        """Build (once) and return the all-destinations dense tables."""
        if self._dense is not None:
            return self._dense
        if self.machine.num_nodes == 1:
            self._dense = DenseTables(
                dist=np.zeros((1, 1), dtype=np.int32),
                next_hop=np.zeros((1, 1), dtype=np.int32),
                next_eid=np.full((1, 1), -1, dtype=np.int32),
            )
            return self._dense
        # compiled.py imports this module, so resolve the provider here.
        from repro.routing.compiled import get_provider

        provider = get_provider()
        if provider is not None:
            dist, nxt, eid, self._loads = provider.tables(self._csr)
            self._dense = DenseTables(dist=dist, next_hop=nxt, next_eid=eid)
        else:
            self._dense = _numpy_dense(self._csr)
        # The dict caches are now redundant; free them.
        self._next.clear()
        self._dist.clear()
        return self._dense

    def complete_loads(self) -> np.ndarray:
        """Each directed edge's load (int64, by edge id) when every
        ordered pair ``(s, d)`` sends one packet along the next-hop tree.

        The C table pass computes these with the tables.  After the
        NumPy build they come from a sweep of the dense tables: a node
        at BFS level L hands its accumulated subtree size to its parent
        at level L-1, so sweeping levels deepest-first accumulates every
        destination tree at once (``sizes[v, d]`` is the subtree size of
        ``v`` in the destination-``d`` tree), and each hand-off loads
        the edge ``v`` forwards on.
        """
        dense = self.ensure_dense()
        if self._loads is None:
            n = self.machine.num_nodes
            dist, nxt = dense.dist, dense.next_hop
            loads = np.zeros(self._csr.num_directed_edges, dtype=np.int64)
            sizes = np.ones((n, n), dtype=np.int64)
            for level in range(int(dist.max()), 0, -1):
                v_idx, d_idx = np.nonzero(dist == level)
                parents = nxt[v_idx, d_idx].astype(np.int64)
                contrib = sizes[v_idx, d_idx]
                np.add.at(sizes, (parents, d_idx), contrib)
                np.add.at(loads, dense.next_eid[v_idx, d_idx], contrib)
            self._loads = loads
        return self._loads

    @property
    def has_dense(self) -> bool:
        return self._dense is not None

    # -- queries -------------------------------------------------------------

    def next_hop(self, node: int, dest: int) -> int:
        """Next node on a shortest path from ``node`` toward ``dest``."""
        if self._dense is not None:
            return int(self._dense.next_hop[node, dest])
        if dest not in self._next:
            self._build(dest)
        return int(self._next[dest][node])

    def distance(self, node: int, dest: int) -> int:
        """Shortest-path distance from ``node`` to ``dest``."""
        if self._dense is not None:
            return int(self._dense.dist[node, dest])
        if dest not in self._dist:
            self._build(dest)
        return int(self._dist[dest][node])

    def distance_array(self, dest: int) -> np.ndarray:
        """Vector of distances from every node to ``dest``."""
        if self._dense is not None:
            return self._dense.dist[:, dest]
        if dest not in self._dist:
            self._build(dest)
        return self._dist[dest]

    def next_array(self, dest: int) -> np.ndarray:
        """Vector of next hops from every node toward ``dest``."""
        if self._dense is not None:
            return self._dense.next_hop[:, dest]
        if dest not in self._next:
            self._build(dest)
        return self._next[dest]

    def path(self, src: int, dest: int) -> list[int]:
        """A concrete shortest path (list of nodes, inclusive)."""
        out = [src]
        v = src
        while v != dest:
            v = self.next_hop(v, dest)
            out.append(v)
            if len(out) > self.machine.num_nodes:
                raise RuntimeError("routing loop detected")
        return out

    def itinerary_hops(self, legs: list[list[int]]) -> int:
        """Total shortest-path hop count over all itinerary legs."""
        if self._dense is not None and len(legs):
            if isinstance(legs, np.ndarray) and legs.ndim == 2:
                # Rectangular batch: every consecutive pair is a leg.
                return int(self._dense.dist[legs[:, :-1], legs[:, 1:]].sum())
            flat = np.concatenate([np.asarray(leg, dtype=np.int64) for leg in legs])
            lens = np.fromiter((len(leg) for leg in legs), dtype=np.int64)
            ends = np.cumsum(lens) - 1
            inner = np.ones(len(flat) - 1, dtype=bool)
            inner[ends[:-1]] = False  # don't pair across packet boundaries
            a, b = flat[:-1][inner], flat[1:][inner]
            return int(self._dense.dist[a, b].sum())
        total = 0
        for leg in legs:
            for a, b in zip(leg, leg[1:]):
                total += self.distance(a, b)
        return total

    @property
    def num_cached(self) -> int:
        """Number of destinations with built tables."""
        if self._dense is not None:
            return self.machine.num_nodes
        return len(self._next)


def _numpy_dense(csr: CSRAdjacency) -> DenseTables:
    """The NumPy build of the dense tables (n >= 2): scipy's batched BFS
    for distances, then the tie-break vectorized over directed edges."""
    # Imported here: the compiled path never needs scipy.
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import shortest_path

    n = csr.num_nodes
    graph = csr_array(
        (
            np.ones(csr.num_directed_edges, dtype=np.int8),
            csr.indices,
            csr.indptr,
        ),
        shape=(n, n),
    )
    raw = shortest_path(graph, method="auto", directed=True, unweighted=True)
    if not np.all(np.isfinite(raw)):
        raise RuntimeError("machine graph is disconnected")
    dist = raw.astype(np.int32)
    del raw

    indptr = csr.indptr.astype(np.int64)
    indices = csr.indices
    edge_src = csr.edge_src
    num_edges = csr.num_directed_edges
    nxt = np.empty((n, n), dtype=np.int32)
    eid = np.empty((n, n), dtype=np.int32)

    # h[v, d]: the deterministic tie-break hash (int64 arithmetic is
    # exact here: v, d < 2^31 so the products stay below 2^62).
    h_rows = np.arange(n, dtype=np.int64) * _HASH_A
    h_cols = np.arange(n, dtype=np.int64) * _HASH_B
    block_end = indptr[1:] - 1  # last CSR slot of each row (deg >= 1)

    # Chunk destinations so the (num_edges x chunk) working set stays
    # bounded (~64 MB) on large machines.  The cumulative-count dtype
    # only needs to hold num_edges, so narrow it when possible.
    chunk = max(1, int(64_000_000 // max(1, num_edges * 8)))
    ctype = np.int16 if num_edges < 32_000 else np.int32
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        dist_c = dist[:, lo:hi]
        # cand[e, d]: directed edge e points one step closer to d.
        cand = dist_c[indices] == dist_c[edge_src] - 1
        cum = np.cumsum(cand, axis=0, dtype=ctype)
        offset = np.zeros((n, hi - lo), dtype=ctype)
        offset[1:] = cum[block_end[:-1]]
        counts = (cum[block_end] - offset).astype(np.int32)
        h = ((h_rows[:, None] + h_cols[None, lo:hi]) & _HASH_MASK).astype(
            np.int32
        )
        # 1-based candidate rank; the selected slot is the one whose
        # running count hits offset + rank.
        rank = (h % np.maximum(counts, 1) + 1).astype(ctype)
        target = offset + rank
        sel = cand & (cum == target[edge_src])
        e_idx, d_idx = np.nonzero(sel)
        nxt[edge_src[e_idx], lo + d_idx] = indices[e_idx]
        eid[edge_src[e_idx], lo + d_idx] = e_idx.astype(np.int32)

    diag = np.arange(n)
    nxt[diag, diag] = diag
    eid[diag, diag] = -1
    return DenseTables(dist=dist, next_hop=nxt, next_eid=eid)
