"""Theorem 1 (Efficient Emulation Theorem), symbolically, and Lemma 8.

The communication-induced slowdown of any sufficiently long efficient
emulation of guest ``G`` on bottleneck-free host ``H`` is

    S_c  >=  Omega( beta(G) / beta(H) ).

Because guest and host sizes are different variables, the symbolic bound
is carried as a :class:`SlowdownBound` holding ``beta_G(n)`` and
``beta_H(m)`` separately; it evaluates numerically at any ``(n, m)`` and
specialises to a one-variable LogPoly when ``m`` is a known function of
``n``.  The certified bound on concrete machines is
:func:`repro.bandwidth.graph_theoretic.numeric_slowdown_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.asymptotics import LogPoly, substitute
from repro.topologies.registry import family_spec

if TYPE_CHECKING:  # figure1 imports this module; keep numpy and networkx out
    from repro.topologies.base import Machine
    from repro.traffic.multigraph import TrafficMultigraph

__all__ = [
    "SlowdownBound",
    "symbolic_slowdown",
    "lemma8_time_lower",
]


@dataclass(frozen=True)
class SlowdownBound:
    """``S_c >= Omega(beta_G(n) / beta_H(m))`` with n = |G|, m = |H|."""

    guest_key: str
    host_key: str
    beta_guest: LogPoly  # in n
    beta_host: LogPoly  # in m

    def evaluate(self, n: float, m: float) -> float:
        """Numeric bound at concrete sizes (Theta constants dropped)."""
        return self.beta_guest.evaluate(n) / self.beta_host.evaluate(m)

    def specialise(self, host_size: LogPoly) -> LogPoly:
        """The bound as a LogPoly in n when ``m = host_size(n)``."""
        return self.beta_guest / substitute(self.beta_host, host_size)

    def __str__(self) -> str:
        guest = str(self.beta_guest)
        host = str(self.beta_host).replace("n", "m")
        return f"S_c >= Omega( [{guest}] / [{host}] )"


def symbolic_slowdown(guest_key: str, host_key: str) -> SlowdownBound:
    """Theorem 1 for a (guest family, host family) pair."""
    g = family_spec(guest_key)
    h = family_spec(host_key)
    return SlowdownBound(
        guest_key=guest_key,
        host_key=host_key,
        beta_guest=g.beta,
        beta_host=h.beta,
    )


def lemma8_time_lower(pattern: TrafficMultigraph, host: Machine) -> float:
    """Lemma 8, executable: time to 1-to-1 execute pattern ``C`` on ``H``.

    The paper's bound is ``T >= beta(C, pi) / beta(H, pi)``.  With the
    pattern's vertices pinned to the host processors they name (the
    situation after an emulation has placed its super-vertices), two
    placement-specific congestion arguments give a rigorous bound:

    * **wire capacity**: at most one message crosses each directed link
      per tick, and every inter-processor message needs at least one
      hop, so ``T >= E(C) / (2 * E(H))``;
    * **cut flux**: for any host cut, all pattern edges crossing it must
      be carried by the cut links, each moving one packet per direction
      per tick, so ``T >= crossing(C) / (2 * cut_links)``.

    Returns the best of these over every prefix of the cut profile's
    vertex orders (:func:`~repro.embedding.lower_bounds.order_positions`).
    Requires ``|C| <= |H|``.
    """
    if pattern.n > host.num_nodes:
        raise ValueError(
            f"pattern has {pattern.n} vertices, host only {host.num_nodes}"
        )
    import numpy as np

    from repro.embedding.lower_bounds import (
        link_ends,
        order_positions,
        prefix_crossings,
    )

    links = link_ends(host)
    pairs = np.array(list(pattern.weights), dtype=np.int64).reshape(-1, 2)
    weights = np.fromiter(pattern.weights.values(), dtype=np.int64)
    n = host.num_nodes
    bound = pattern.num_simple_edges / (2 * host.num_edges)
    for pos in order_positions(host):
        cut_links = prefix_crossings(pos, *links)[:, 1:n]
        crossing = prefix_crossings(pos, pairs[:, 0], pairs[:, 1], weights)[:, 1:n]
        bound = max(bound, float(np.max(crossing / (2 * cut_links))))
    return bound
