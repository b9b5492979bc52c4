"""Lemma 9, executable: the gamma-construction inside a circuit.

Given a guest ``G`` and an efficient homogeneous circuit of depth
``t = (1 + alpha) * lambda(G)`` (lambda = average distance, the average
dilation of the shortest-path witness embedding of ``K_n`` into ``G``),
the construction lays a quasi-symmetric traffic graph ``gamma`` whose
vertices are circuit nodes:

* **S-nodes** -- one representative of each guest vertex on each of the
  last ``window`` levels;
* **cones** -- from S-node ``(u, i)``, follow the witness shortest path
  of every destination ``v`` with ``dist(u, v) <= cutoff`` *up* the
  circuit (towards earlier levels), reaching ``(v, i - d)``;
* **Q-sets** -- from each cone terminal, climb identity arcs, picking off
  one gamma-edge per level for up to ``bundle_cap`` levels.

Each gamma-edge is embedded as the concatenated cone-path + identity
path; the achieved congestion of this embedding certifies a *lower*
bound ``beta(Phi, gamma) >= E(gamma) / congestion``, which Lemma 9 says
is ``Omega(t * beta(G))``.  :meth:`GammaConstruction.bandwidth_ratio`
reports the measured ratio so the claim is checkable across guests and
sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bandwidth.graph_theoretic import beta_bracket
from repro.routing.tables import NextHopTables
from repro.topologies.base import Machine

__all__ = ["GammaConstruction", "build_gamma"]


@dataclass(frozen=True)
class GammaConstruction:
    """The measured outcome of one gamma-construction."""

    guest_name: str
    n: int
    depth: int
    cutoff: int
    window: int
    bundle_cap: int
    num_s_nodes: int
    num_gamma_vertices: int
    num_gamma_edges: int
    max_multiplicity: int
    congestion: int
    guest_beta_lower: float
    guest_beta_upper: float

    @property
    def beta_gamma_lower(self) -> float:
        """Certified lower bound on beta(Phi, gamma)."""
        if self.congestion == 0:
            return float("inf")
        return self.num_gamma_edges / self.congestion

    def bandwidth_ratio(self) -> float:
        """beta(Phi, gamma) / (t * beta(G)): Lemma 9 says Omega(1).

        Uses the guest's certified beta *upper* bound in the
        denominator's place of Theta(beta(G)).  That is the conservative
        choice: it can only shrink the ratio, so a ratio bounded away
        from 0 across sizes witnesses the lemma.
        """
        denom = self.depth * self.guest_beta_upper
        if denom == 0:
            return float("inf")
        return self.beta_gamma_lower / denom

    def quasi_symmetry(self) -> float:
        """gamma-edges per vertex-pair bound: |E| / (r^2 s) for K_{r,s}."""
        r = self.num_gamma_vertices
        s = max(1, self.max_multiplicity)
        return self.num_gamma_edges / (r * r * s) if r else 0.0


def build_gamma(
    guest: Machine,
    depth: int | None = None,
    alpha: float = 1.0,
    bundle_cap: int | None = None,
    window: int | None = None,
    max_path_steps: int = 5_000_000,
) -> GammaConstruction:
    """Run the Lemma-9 construction on ``guest``.

    Operates on the duplicity-1 homogeneous circuit implicitly (circuit
    nodes are ``(vertex, level)`` pairs); the embedding paths walk real
    circuit arcs (witness shortest-path routing arcs + identity arcs).

    Raises if the construction would walk more than ``max_path_steps``
    circuit-edge traversals (guard for accidental huge instances).
    """
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    n = guest.num_nodes
    tables = NextHopTables.shared(guest)

    # lambda(G): average distance of the witness embedding.
    if n > 1:
        total = int(tables.ensure_dense().dist.sum())
        lam = total / (n * (n - 1))
    else:
        lam = 0.0
    cutoff = max(1, round((1 + alpha / 2) * lam))
    if depth is None:
        depth = max(cutoff + 1, round((1 + alpha) * lam))
    if depth <= cutoff:
        raise ValueError(
            f"depth {depth} must exceed the cone cutoff {cutoff}"
        )
    if bundle_cap is None:
        bundle_cap = max(1, depth // 4)
    if window is None:
        window = max(1, depth // 2)
    window = min(window, depth - cutoff)

    s_levels = range(depth, depth - window, -1)

    # Pre-pull witness paths per ordered pair within the cutoff.
    # paths[u][v] = list of vertices from u to v (length = dist).
    loads: dict[tuple[tuple[int, int], tuple[int, int]], int] = {}
    gamma_vertices: set[tuple[int, int]] = set()
    gamma_edges = 0
    steps = 0
    num_s_nodes = 0

    for i in s_levels:
        for u in range(n):
            num_s_nodes += 1
            s_node = (u, i)
            dist_u = tables.distance_array(u)  # distances *to* u == from u
            for v in range(n):
                if v == u:
                    continue
                d = int(dist_u[v])
                if d > cutoff or d > i:
                    continue
                path = tables.path(v, u)[::-1]  # u -> v along witness route
                reach = min(bundle_cap, i - d + 1)
                # Shared cone prefix: count its load once per gamma-edge
                # bundle member (each gamma-edge traverses the full cone).
                for r in range(reach):
                    q_node = (v, i - d - r)
                    gamma_vertices.add(q_node)
                    gamma_edges += 1
                    steps += d + r
                    if steps > max_path_steps:
                        raise RuntimeError(
                            f"gamma construction exceeds {max_path_steps} "
                            f"path steps; shrink guest/depth/bundle_cap"
                        )
                # Load accounting, bundle-aware: the cone edge at hop h
                # (levels i-h -> i-h-1) carries all `reach` gamma-edges.
                for h in range(d):
                    a = (path[h], i - h)
                    b = (path[h + 1], i - h - 1)
                    key = (a, b)
                    loads[key] = loads.get(key, 0) + reach
                # Identity edge below level i-d-r carries the gamma-edges
                # still climbing: edge (v, i-d-r)->(v, i-d-r-1) carries
                # reach - 1 - r of them.
                for r in range(reach - 1):
                    key = ((v, i - d - r), (v, i - d - r - 1))
                    loads[key] = loads.get(key, 0) + (reach - 1 - r)
            gamma_vertices.add(s_node)

    congestion = max(loads.values()) if loads else 0
    bracket = beta_bracket(guest)
    return GammaConstruction(
        guest_name=guest.name,
        n=n,
        depth=depth,
        cutoff=cutoff,
        window=window,
        bundle_cap=bundle_cap,
        num_s_nodes=num_s_nodes,
        num_gamma_vertices=len(gamma_vertices),
        num_gamma_edges=gamma_edges,
        max_multiplicity=1,
        congestion=congestion,
        guest_beta_lower=bracket.lower,
        guest_beta_upper=bracket.upper,
    )
