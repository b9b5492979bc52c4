"""LP-certified congestion lower bounds (exact fractional congestion).

The cut family in :mod:`repro.embedding.lower_bounds` gives fast lower
bounds on the minimum congestion ``C(H, T)``; this module computes the
*exact fractional* minimum congestion by linear programming, which is a
tighter certified lower bound on the integral optimum (fractional <=
integral) and lets the ablation bench quantify how much the cut family
leaves on the table.

Formulation (multicommodity flow, one commodity per traffic source:
the pairs ``(u, v)`` with ``u < v`` that share ``u`` ship together, which
has the same optimum because a single-source flow decomposes into one
path flow per sink):

    minimise z
    s.t.  for each commodity s:   flow conservation, w(s, v) units
                                  out of s into each v
          for each undirected link e:  sum_s (f_s(e->) + f_s(e<-)) <= z

Variables: per-commodity flows on directed links, plus z; solved with
``scipy.optimize.linprog`` (HiGHS).  Problem size is (sources * 2E + 1)
variables, so this is for small instances (the ablation uses n <= 36);
``max_pairs`` guards against accidental K_n-sized calls.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_array

from repro.topologies.base import Machine
from repro.traffic.multigraph import TrafficMultigraph

__all__ = ["lp_min_congestion", "lp_beta_upper"]


def lp_min_congestion(
    machine: Machine,
    traffic: TrafficMultigraph | None = None,
    max_pairs: int = 800,
) -> float:
    """Exact minimum *fractional* congestion of routing ``traffic``.

    ``traffic=None`` means complete symmetric traffic (every unordered
    pair, multiplicity 1).  Returns a certified lower bound on the
    integral minimum congestion C(H, T).
    """
    n = machine.num_nodes
    if traffic is None:
        traffic = TrafficMultigraph(
            n, {(u, v): 1 for u in range(n) for v in range(u + 1, n)}
        )
    if traffic.n > n:
        raise ValueError(f"traffic over {traffic.n} vertices, host has {n}")
    pairs = [(u, v, w) for (u, v), w in sorted(traffic.weights.items()) if w > 0]
    if not pairs:
        return 0.0
    if len(pairs) > max_pairs:
        raise ValueError(
            f"{len(pairs)} commodities exceeds max_pairs={max_pairs}; "
            "use the cut bounds for large instances"
        )

    edges = np.array(list(machine.graph.edges()), dtype=np.int64).reshape(-1, 2)
    ne = len(edges)
    src, dst, weight = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    sources, commodity = np.unique(src, return_inverse=True)
    k = len(sources)
    # Variable layout: for commodity i, directed flows f[i, e, dir] at
    # offset i * 2 * ne + 2*e + dir (dir 0: u -> v, dir 1: v -> u); z is
    # the last variable.
    nvars = k * 2 * ne + 1
    fwd = (np.arange(k)[:, None] * 2 * ne + 2 * np.arange(ne)[None, :]).ravel()
    node_row = (np.arange(k)[:, None] * n).repeat(ne, axis=1).ravel()
    u = np.tile(edges[:, 0], k) + node_row
    v = np.tile(edges[:, 1], k) + node_row

    # Equality constraints: conservation at every node for every
    # commodity (rows: k * n), inflow minus outflow.
    a_eq = coo_array(
        (
            np.repeat([-1.0, 1.0, -1.0, 1.0], len(fwd)),
            (np.concatenate([u, v, v, u]), np.concatenate([fwd, fwd, fwd + 1, fwd + 1])),
        ),
        shape=(k * n, nvars),
    ).tocsr()
    b_eq = np.zeros(k * n)
    np.add.at(b_eq, commodity * n + src, -weight)  # net outflow at the source
    np.add.at(b_eq, commodity * n + dst, weight)  # net inflow at each sink

    # Inequalities: per undirected link, total flow <= z.
    link = np.tile(np.arange(ne), k)
    a_ub = coo_array(
        (
            np.concatenate([np.ones(2 * len(fwd)), -np.ones(ne)]),
            (
                np.concatenate([link, link, np.arange(ne)]),
                np.concatenate([fwd, fwd + 1, np.full(ne, nvars - 1)]),
            ),
        ),
        shape=(ne, nvars),
    ).tocsr()
    b_ub = np.zeros(ne)

    c = np.zeros(nvars)
    c[nvars - 1] = 1.0
    res = linprog(
        c,
        A_ub=a_ub,
        b_ub=b_ub,
        A_eq=a_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * nvars,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"congestion LP failed: {res.message}")
    return float(res.x[nvars - 1])


def lp_beta_upper(machine: Machine, max_pairs: int = 800) -> float:
    """LP-certified upper bound on beta(H): E(K_n) / fractional C(H, K_n)."""
    n = machine.num_nodes
    c = lp_min_congestion(machine, max_pairs=max_pairs)
    if c <= 0:
        return float("inf")
    return (n * (n - 1) / 2) / c
