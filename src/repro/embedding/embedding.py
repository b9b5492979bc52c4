"""The :class:`Embedding` object: a vertex map plus routing paths.

An embedding of guest multigraph ``G`` into host machine ``H`` assigns
each guest vertex to a host processor (injectively, for the paper's
1-to-1 executions) and each guest edge to a walk in ``H`` between the
images of its endpoints.  Its *congestion* is the maximum number of
guest-edge traversals (weighted by multiplicity) across any host link;
*dilation* the longest routing path; *average dilation* the
multiplicity-weighted mean.  These are exactly the quantities
``c(A, B)`` and ``delta(A, B)`` of Section 2.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from repro.topologies.base import Machine
from repro.traffic.multigraph import TrafficMultigraph

__all__ = ["Embedding"]


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


class Embedding:
    """A weighted embedding of a guest (multi)graph into a host machine."""

    def __init__(
        self,
        host: Machine,
        guest_edges: Mapping[tuple[Hashable, Hashable], int],
        vertex_map: Mapping[Hashable, int],
        paths: Mapping[tuple[Hashable, Hashable], list[int]],
        injective: bool = True,
    ):
        self.host = host
        self.guest_edges = {
            _pair_key(u, v): int(w) for (u, v), w in guest_edges.items()
        }
        self.vertex_map = dict(vertex_map)
        self.paths = {_pair_key(u, v): list(p) for (u, v), p in paths.items()}
        self._validate(injective)
        self._congestion: int | None = None

    @classmethod
    def from_traffic(
        cls,
        host: Machine,
        traffic: TrafficMultigraph,
        vertex_map: Mapping[int, int],
        paths: Mapping[tuple[int, int], list[int]],
    ) -> "Embedding":
        """Embed a traffic multigraph (weights = multiplicities)."""
        return cls(host, traffic.weights, vertex_map, paths)

    # -- validity ---------------------------------------------------------------

    def _validate(self, injective: bool) -> None:
        hn = self.host.num_nodes
        for g, h in self.vertex_map.items():
            if not (0 <= h < hn):
                raise ValueError(f"vertex {g!r} mapped to {h} outside host")
        if injective:
            images = list(self.vertex_map.values())
            if len(set(images)) != len(images):
                raise ValueError("vertex map is not injective (1-to-1 required)")
        host_adj = self.host.graph
        for (u, v), w in self.guest_edges.items():
            if w == 0:
                continue
            path = self.paths.get((u, v))
            if path is None:
                raise ValueError(f"guest edge ({u!r}, {v!r}) has no routing path")
            hu, hv = self.vertex_map[u], self.vertex_map[v]
            if {path[0], path[-1]} != {hu, hv}:
                raise ValueError(
                    f"path for ({u!r}, {v!r}) joins {path[0]}..{path[-1]}, "
                    f"expected {hu}..{hv}"
                )
            for a, b in zip(path, path[1:]):
                if not host_adj.has_edge(a, b):
                    raise ValueError(
                        f"path for ({u!r}, {v!r}) uses non-edge ({a}, {b})"
                    )

    # -- costs --------------------------------------------------------------------

    @property
    def total_multiplicity(self) -> int:
        """``E(G)``: sum of guest edge multiplicities."""
        return sum(self.guest_edges.values())

    def congestion(self) -> int:
        """Max multiplicity-weighted traversals of any host link."""
        if self._congestion is None:
            loads: dict[tuple[int, int], int] = {}
            for (u, v), w in self.guest_edges.items():
                if w == 0:
                    continue
                for a, b in zip(self.paths[(u, v)], self.paths[(u, v)][1:]):
                    key = _edge_key(a, b)
                    loads[key] = loads.get(key, 0) + w
            self._congestion = max(loads.values()) if loads else 0
        return self._congestion

    def edge_loads(self) -> dict[tuple[int, int], int]:
        """Per-host-link weighted traversal counts."""
        loads: dict[tuple[int, int], int] = {}
        for (u, v), w in self.guest_edges.items():
            if w == 0:
                continue
            for a, b in zip(self.paths[(u, v)], self.paths[(u, v)][1:]):
                key = _edge_key(a, b)
                loads[key] = loads.get(key, 0) + w
        return loads

    def dilation(self) -> int:
        """Longest routing path (in links)."""
        lengths = [
            len(p) - 1 for (e, p) in self.paths.items() if self.guest_edges.get(e, 0)
        ]
        return max(lengths) if lengths else 0

    def average_dilation(self) -> float:
        """Multiplicity-weighted mean routing-path length."""
        total_w = 0
        total_len = 0
        for e, p in self.paths.items():
            w = self.guest_edges.get(e, 0)
            total_w += w
            total_len += w * (len(p) - 1)
        return total_len / total_w if total_w else 0.0

    def load(self) -> int:
        """Max guest vertices on one host processor (1 for injective maps)."""
        counts: dict[int, int] = {}
        for h in self.vertex_map.values():
            counts[h] = counts.get(h, 0) + 1
        return max(counts.values()) if counts else 0

    def expansion(self) -> float:
        """Host size over guest size."""
        return self.host.num_nodes / max(1, len(self.vertex_map))

    def __repr__(self) -> str:
        return (
            f"Embedding(|G|={len(self.vertex_map)}, E(G)={self.total_multiplicity}, "
            f"host={self.host.name}, c={self.congestion()}, d={self.dilation()})"
        )


def _pair_key(u: Hashable, v: Hashable) -> tuple[Hashable, Hashable]:
    try:
        return (u, v) if u <= v else (v, u)  # type: ignore[operator]
    except TypeError:
        return (u, v) if repr(u) <= repr(v) else (v, u)
