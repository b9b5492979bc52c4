"""All-pairs next-hop routing tables: lazy per destination, or dense.

Every path holds the same two ``[node, dest]`` tables: the shortest-path
distance, and the *directed edge id* (CSR slot) of the next hop, which
is what the routing engines consume.  The next node itself is
``csr.indices[next_eid]``.  Three build paths produce them bit-identical:

* the lazy path -- one Python BFS per destination, caching that
  destination's ``(dist, next_eid)`` column, cheap when a batch touches
  few distinct destinations;
* :meth:`NextHopTables.ensure_dense` -- all destinations at once.  When
  the compiled provider works (:mod:`repro.routing.compiled`), one C
  pass runs a BFS per destination over the machine's CSR adjacency and
  fills both n x n tables.  Otherwise (no C compiler, or
  ``REPRO_COMPILED=off``) the NumPy build does: the distance matrix
  comes from ``scipy.sparse.csgraph``, and the next-hop choice is
  resolved for every (node, destination) pair with vectorized NumPy
  over the directed-edge arrays.  The NumPy build is also the spec the
  C pass is tested against.

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

from repro.obs import trace as obs
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
    """All-destinations tables: ``[node, dest]``-indexed int32 matrices.

    The next node from ``u`` toward ``d != u`` is
    ``csr.indices[next_eid[u, d]]``; ``next_eid[d, d]`` is -1.
    """

    dist: np.ndarray  # dist[u, d] = shortest-path distance u -> d
    next_eid: np.ndarray  # next_eid[u, d] = directed edge id of u's next hop


class NextHopTables:
    """Shortest-path next-hop and distance tables for one machine."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self._csr = machine.csr_adjacency()
        self._columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}
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

    def _bfs(self, dest: int) -> tuple[np.ndarray, np.ndarray]:
        n = self.machine.num_nodes
        indptr, indices = self._csr.indptr, self._csr.indices
        dist = np.full(n, -1, dtype=np.int32)
        eid = np.full(n, -1, dtype=np.int32)
        dist[dest] = 0
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
                e
                for e in range(indptr[v], indptr[v + 1])
                if dist[indices[e]] == dv - 1
            ]
            h = (v * _HASH_A + dest * _HASH_B) & _HASH_MASK
            eid[v] = cands[h % len(cands)]
        return dist, eid

    def _column(self, dest: int) -> tuple[np.ndarray, np.ndarray]:
        """Every node's ``(dist, next_eid)`` toward ``dest``, cached: views
        of the dense tables once built, else the lazy BFS's column."""
        column = self._columns.get(dest)
        if column is None:
            dense = self._dense
            column = self._columns[dest] = (
                (dense.dist[:, dest], dense.next_eid[:, dest])
                if dense is not None
                else self._bfs(dest)
            )
        return column

    # -- dense batched build -------------------------------------------------

    def ensure_dense(self) -> DenseTables:
        """Build (once) and return the all-destinations dense tables."""
        if self._dense is not None:
            return self._dense
        if self.machine.num_nodes == 1:
            self._dense = DenseTables(
                dist=np.zeros((1, 1), dtype=np.int32),
                next_eid=np.full((1, 1), -1, dtype=np.int32),
            )
            return self._dense
        # compiled.py imports this module, so resolve the provider here.
        from repro.routing.compiled import get_provider

        with obs.span("tables.dense", n=self.machine.num_nodes):
            provider = get_provider()
            if provider is not None:
                dist, eid, self._loads = provider.tables(self._csr)
                self._dense = DenseTables(dist=dist, next_eid=eid)
            else:
                self._dense = _numpy_dense(self._csr)
        # The lazy columns are now redundant; free them.
        self._columns.clear()
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
            dist = dense.dist
            loads = np.zeros(self._csr.num_directed_edges, dtype=np.int64)
            sizes = np.ones((n, n), dtype=np.int64)
            for level in range(int(dist.max()), 0, -1):
                v_idx, d_idx = np.nonzero(dist == level)
                hops = dense.next_eid[v_idx, d_idx]
                contrib = sizes[v_idx, d_idx]
                np.add.at(sizes, (self._csr.indices[hops], d_idx), contrib)
                np.add.at(loads, hops, contrib)
            self._loads = loads
        return self._loads

    # -- queries -------------------------------------------------------------

    def next_hop(self, node: int, dest: int) -> int:
        """Next node on a shortest path from ``node`` toward ``dest``."""
        if node == dest:
            return dest
        return int(self._csr.indices[self._column(dest)[1][node]])

    def distance(self, node: int, dest: int) -> int:
        """Shortest-path distance from ``node`` to ``dest``."""
        return int(self._column(dest)[0][node])

    def distance_array(self, dest: int) -> np.ndarray:
        """Vector of distances from every node to ``dest``."""
        return self._column(dest)[0]

    def next_array(self, dest: int) -> np.ndarray:
        """Vector of next hops from every node toward ``dest`` (``dest``
        itself at ``dest``)."""
        nxt = self._csr.indices[self._column(dest)[1]]
        nxt[dest] = dest
        return nxt

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

    def itinerary_hops(self, leg_flat: np.ndarray, leg_ptr: np.ndarray) -> int:
        """Total shortest-path hop count over every leg of itineraries in
        the flat layout of :class:`~repro.routing.engine.Run`."""
        if self._dense is not None:
            # Every consecutive waypoint pair, minus the pairs that
            # straddle two packets; flat ``u * n + v`` indices make it
            # one gather.
            n = self.machine.num_nodes
            hops = self._dense.dist.take(leg_flat[:-1] * n + leg_flat[1:])
            return int(hops.sum() - hops[leg_ptr[1:-1] - 1].sum())
        starts = np.ones(len(leg_flat), dtype=bool)
        starts[leg_ptr[1:] - 1] = False  # a packet's last waypoint starts no leg
        a = np.flatnonzero(starts)
        return sum(
            self.distance(u, v)
            for u, v in zip(leg_flat[a].tolist(), leg_flat[a + 1].tolist())
        )

    @property
    def num_cached(self) -> int:
        """Number of destinations with built tables."""
        if self._dense is not None:
            return self.machine.num_nodes
        return len(self._columns)


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
        eid[edge_src[e_idx], lo + d_idx] = e_idx.astype(np.int32)

    diag = np.arange(n)
    eid[diag, diag] = -1
    return DenseTables(dist=dist, next_eid=eid)
