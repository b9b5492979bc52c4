"""Cross-cutting property-based tests (fuzzing the model invariants).

These go beyond per-module unit tests: random machines, random traffic,
and random circuits are generated under hypothesis and the *paper's*
invariants are asserted -- conservation laws, bound validity, and
consistency between independent implementations of the same quantity.
"""

from __future__ import annotations

import functools

import networkx as nx
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from tests.hypothesis_profiles import QUICK, SLOW, STANDARD

from repro.bandwidth import beta_bracket, routing_congestion
from repro.embedding import bfs_embedding, random_embedding
from repro.emulation import (
    balanced_assignment,
    build_nonredundant_circuit,
    build_redundant_circuit,
    collapse_circuit,
    schedule_circuit,
)
from repro.routing import NextHopTables, RoutingSimulator
from repro.theory import lemma8_time_lower
from repro.topologies import Machine, build_linear_array, build_ring
from repro.topologies.registry import all_family_keys, family_spec
from repro.traffic import TrafficMultigraph


@st.composite
def random_machine(draw, max_n=20):
    """A random connected machine (random tree + extra random edges)."""
    n = draw(st.integers(min_value=4, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    g = nx.random_labeled_tree(n, seed=int(seed) % (2**31))
    extra = draw(st.integers(min_value=0, max_value=2 * n))
    for _ in range(extra):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            g.add_edge(int(u), int(v))
    return Machine(g, family="random", params={"n": n, "seed": seed})


@st.composite
def random_traffic(draw, n):
    """A random nonempty traffic multigraph on n vertices."""
    k = draw(st.integers(min_value=1, max_value=12))
    tm = TrafficMultigraph(n)
    for _ in range(k):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        w = draw(st.integers(min_value=1, max_value=5))
        if u != v:
            tm.add_edges(u, v, w)
    assume(tm.num_simple_edges > 0)
    return tm


class TestRandomMachineInvariants:
    @given(random_machine())
    @STANDARD
    def test_bracket_valid(self, m):
        """Certified bracket is ordered and finite on any machine."""
        br = beta_bracket(m)
        assert 0 < br.lower <= br.upper < float("inf")

    @given(random_machine())
    @STANDARD
    def test_next_hop_progress(self, m):
        """Every next hop strictly decreases distance (no routing loops)."""
        t = NextHopTables(m)
        n = m.num_nodes
        for dest in (0, n // 2, n - 1):
            for v in range(n):
                if v != dest:
                    assert t.distance(t.next_hop(v, dest), dest) == t.distance(
                        v, dest
                    ) - 1

    @given(random_machine(max_n=14), st.integers(min_value=1, max_value=25))
    @SLOW
    def test_all_packets_delivered(self, m, k):
        """Conservation: every injected packet is delivered exactly once."""
        rng = np.random.default_rng(7)
        its = []
        for _ in range(k):
            s, d = rng.integers(0, m.num_nodes, size=2)
            its.append([int(s), int(d)])
        res = RoutingSimulator(m).route(its)
        assert res.num_packets == k
        assert np.all(res.delivery_times >= 0)

    @given(random_machine(max_n=14))
    @SLOW
    def test_lemma8_respected_by_simulator(self, m):
        """Routed time always beats the Lemma-8 lower bound."""
        rng = np.random.default_rng(3)
        tm = TrafficMultigraph(m.num_nodes)
        for _ in range(8):
            u, v = rng.integers(0, m.num_nodes, size=2)
            if u != v:
                tm.add_edges(int(u), int(v), int(rng.integers(1, 4)))
        assume(tm.num_simple_edges > 0)
        bound = lemma8_time_lower(tm, m)
        its = []
        for (u, v), w in tm.weights.items():
            its += [[u, v]] * w
        t_real = RoutingSimulator(m).route(its).total_time
        assert t_real >= bound - 1e-9


class TestEmbeddingInvariants:
    @given(random_machine(max_n=16), st.integers(min_value=0, max_value=10**4))
    @STANDARD
    def test_embeddings_always_valid(self, host, seed):
        """Random guests embed with consistent congestion >= max path use."""
        rng = np.random.default_rng(seed)
        k = int(rng.integers(3, host.num_nodes + 1))
        guest = nx.cycle_graph(k)
        emb = random_embedding(host, guest, seed=seed)
        assert emb.load() == 1
        assert emb.congestion() >= 1
        assert emb.dilation() >= 1

    @given(random_machine(max_n=16))
    @SLOW
    def test_bfs_no_worse_than_random_on_self(self, host):
        """Embedding the host's own graph: BFS locality never loses to a
        random map by more than the trivial factor."""
        guest = nx.Graph(host.graph.edges())
        bfs = bfs_embedding(host, guest)
        # The identity-like BFS map routes host edges over themselves
        # within constant stretch.
        assert bfs.average_dilation() <= host.diameter()


class TestCircuitInvariants:
    @given(
        st.integers(min_value=4, max_value=12),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=3),
    )
    @STANDARD
    def test_collapse_conserves_arcs(self, n, depth, dup):
        """Cross arcs + intra arcs == all arcs, for any block count."""
        c = build_redundant_circuit(build_ring(n), depth, duplicity=dup)
        for m in (1, 2, max(2, n // 3)):
            tm, load = collapse_circuit(c, balanced_assignment(c, m))
            assert tm.num_simple_edges <= c.num_arcs
            if m == 1:
                assert tm.num_simple_edges == 0

    @given(st.integers(min_value=4, max_value=10), st.integers(min_value=1, max_value=4))
    @SLOW
    def test_schedule_time_scales_with_depth(self, n, depth):
        """Doubling circuit depth doubles the scheduled host time."""
        g = build_ring(n)
        host = build_linear_array(2)
        c1 = build_nonredundant_circuit(g, depth)
        c2 = build_nonredundant_circuit(g, 2 * depth)
        s1 = schedule_circuit(c1, host, balanced_assignment(c1, 2))
        s2 = schedule_circuit(c2, host, balanced_assignment(c2, 2))
        assert s2.host_time == 2 * s1.host_time

    @given(st.integers(min_value=4, max_value=12), st.integers(min_value=1, max_value=3))
    @STANDARD
    def test_nonredundant_work_exact(self, n, depth):
        c = build_nonredundant_circuit(build_ring(n), depth)
        assert c.num_nodes == n * (depth + 1)
        assert c.work_ratio() == 1.0
        assert c.is_valid()


class TestCongestionConsistency:
    @given(random_machine(max_n=12))
    @QUICK
    def test_explicit_traffic_congestion_additive(self, m):
        """Doubling a traffic multigraph doubles its routed congestion."""
        tm = TrafficMultigraph(m.num_nodes, {(0, m.num_nodes - 1): 3})
        from repro.traffic import scale_multigraph

        c1 = routing_congestion(m, tm)
        c2 = routing_congestion(m, scale_multigraph(tm, 2))
        assert c2 == 2 * c1

    @given(random_machine(max_n=12))
    @QUICK
    def test_cut_bound_below_lp(self, m):
        """Cut-family lower bound never exceeds the LP-exact optimum."""
        from repro.bandwidth import lp_min_congestion
        from repro.embedding import congestion_lower_bound

        assert congestion_lower_bound(m) <= lp_min_congestion(m) + 1e-6

    @given(random_machine(max_n=12))
    @QUICK
    def test_each_order_kind_below_lp(self, m):
        """Every kind of swept vertex order is a valid bound on its own."""
        from repro.bandwidth import lp_min_congestion

        lp = lp_min_congestion(m)
        for kind, rows in orders_by_kind(m).items():
            assert best_single_cut_bound(m, rows) <= lp + 1e-6, kind


def orders_by_kind(machine) -> dict[str, np.ndarray]:
    """The cut profile's vertex orders (as position rows), by kind."""
    from repro.embedding.lower_bounds import MAX_ROOTS, order_positions

    rows = np.vstack(list(order_positions(machine)))
    per_root = 2 * min(machine.num_nodes, MAX_ROOTS)
    kinds = {
        "bfs": rows[0:per_root:2],
        "postorder": rows[1:per_root:2],
        "fiedler": rows[-1:],
    }
    if len(rows) > per_root + 1:
        kinds["labels"] = rows[per_root:-1]
    return kinds


def best_single_cut_bound(machine, rows: np.ndarray) -> float:
    """The best ``cut_congestion_bound`` over every prefix of ``rows``."""
    from repro.embedding import cut_congestion_bound

    n = machine.num_nodes
    return max(
        cut_congestion_bound(machine, n, set(np.flatnonzero(pos < p).tolist()))
        for pos in rows
        for p in range(1, n)
    )


@functools.lru_cache(maxsize=None)
def small_family_lp(key: str) -> float | None:
    """LP-exact congestion of ``key`` at n ~ 24; None past ``max_pairs``."""
    from repro.bandwidth import lp_min_congestion

    m = family_spec(key).build_with_size(24)
    n = m.num_nodes
    return lp_min_congestion(m) if n * (n - 1) // 2 <= 800 else None


class TestCutProfileAgainstLp:
    @pytest.mark.parametrize("key", all_family_keys())
    def test_every_order_kind_below_lp_at_n24(self, key):
        """Each small family's profile bound, and each order kind's on
        its own, stays below the LP-exact optimum."""
        from repro.embedding import congestion_lower_bound

        lp = small_family_lp(key)
        if lp is None:
            pytest.skip("more pairs than the LP's max_pairs")
        m = family_spec(key).build_with_size(24)
        assert congestion_lower_bound(m) <= lp + 1e-6
        for kind, rows in orders_by_kind(m).items():
            assert best_single_cut_bound(m, rows) <= lp + 1e-6, kind

    def test_profile_reaches_lp_on_most_small_families(self):
        """The sweeps are near-exact at n ~ 24: the bound equals the LP
        optimum on at least 32 of the 39 families the LP can solve."""
        from repro.embedding import congestion_lower_bound

        solved = {k: small_family_lp(k) for k in all_family_keys()}
        solved = {k: lp for k, lp in solved.items() if lp is not None}
        exact = [
            key
            for key, lp in solved.items()
            if congestion_lower_bound(family_spec(key).build_with_size(24))
            == pytest.approx(lp, rel=1e-9)
        ]
        assert len(solved) == 39
        assert len(exact) >= 32, sorted(set(solved) - set(exact))
