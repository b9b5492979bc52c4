"""Tests for the routing substrate: tables, simulator, strategies, measure."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bandwidth import routing_congestion
from repro.routing import (
    NextHopTables,
    RoutingSimulator,
    measure_bandwidth,
    shortest_path_route,
    valiant_route,
)
from repro.routing import compiled as compiled_backend
from repro.topologies import (
    all_family_keys,
    build_butterfly,
    build_de_bruijn,
    build_global_bus,
    build_hypercube,
    build_linear_array,
    build_mesh,
    build_ring,
    build_tree,
    build_weak_hypercube,
    build_xtree,
    family_spec,
)
from repro.traffic import permutation_traffic, symmetric_traffic


class TestNextHopTables:
    def test_distances_match_networkx(self):
        import networkx as nx

        m = build_mesh(4, 2)
        t = NextHopTables(m)
        for d in (0, 7, 15):
            ref = nx.single_source_shortest_path_length(m.graph, d)
            for v in m.nodes():
                assert t.distance(v, d) == ref[v]

    def test_next_hop_decreases_distance(self):
        m = build_de_bruijn(5)
        t = NextHopTables(m)
        for dest in (0, 13, 31):
            for v in m.nodes():
                if v == dest:
                    continue
                w = t.next_hop(v, dest)
                assert t.distance(w, dest) == t.distance(v, dest) - 1

    def test_path_is_shortest(self):
        m = build_mesh(5, 2)
        t = NextHopTables(m)
        p = t.path(0, 24)
        assert p[0] == 0 and p[-1] == 24
        assert len(p) - 1 == t.distance(0, 24)

    def test_path_edges_exist(self):
        m = build_tree(4)
        t = NextHopTables(m)
        p = t.path(3, 27)
        for a, b in zip(p, p[1:]):
            assert m.graph.has_edge(a, b)

    def test_lazy_caching(self):
        m = build_ring(8)
        t = NextHopTables(m)
        assert t.num_cached == 0
        t.distance(0, 3)
        assert t.num_cached == 1

    def test_self_path(self):
        m = build_ring(8)
        t = NextHopTables(m)
        assert t.path(2, 2) == [2]

    def test_tie_break_deterministic(self):
        m = build_hypercube(4)
        a, b = NextHopTables(m), NextHopTables(m)
        for v in range(16):
            assert a.next_hop(v, 9) == b.next_hop(v, 9)

    def test_dense_matches_lazy(self):
        """The batched dense build is bit-identical to per-dest BFS."""
        for m in (
            build_linear_array(2),
            build_global_bus(62),  # two hubs of degree 32
            build_xtree(5),
            build_mesh(8, 2),
            build_butterfly(3),
            build_hypercube(4),
            build_de_bruijn(5),
            build_tree(4),
        ):
            lazy = NextHopTables(m)
            dense_t = NextHopTables(m)
            dense = dense_t.ensure_dense()
            n = m.num_nodes
            for d in range(n):
                assert np.array_equal(lazy.distance_array(d), dense.dist[:, d])
                assert np.array_equal(lazy.next_array(d), dense_t.next_array(d))

    def test_dense_edge_ids_consistent(self):
        """next_eid slots are out-edges leading one step closer."""
        m = build_de_bruijn(4)
        t = NextHopTables(m)
        dense = t.ensure_dense()
        csr = m.csr_adjacency()
        n = m.num_nodes
        for d in range(n):
            for v in range(n):
                if v == d:
                    assert dense.next_eid[v, d] == -1
                    continue
                e = dense.next_eid[v, d]
                assert csr.edge_src[e] == v
                assert dense.dist[csr.indices[e], d] == dense.dist[v, d] - 1

    @pytest.mark.parametrize("size", [64, 256])
    @pytest.mark.parametrize("family", all_family_keys())
    def test_compiled_pass_matches_numpy_build(self, family, size, monkeypatch):
        """The C table pass equals the NumPy build it stands in for: the
        two tables, the complete-traffic loads and the congestion
        they reduce to.  Each side builds its own machine, so neither
        reads the other's shared tables."""
        if not compiled_backend.capability()["available"]:
            pytest.skip("no compiled provider to compare")

        def build():
            compiled_backend._reset_provider_cache()
            machine = family_spec(family).build_with_size(size)
            tables = NextHopTables.shared(machine)
            return (
                tables.ensure_dense(),
                tables.complete_loads(),
                routing_congestion(machine),
            )

        try:
            dense_c, loads_c, congestion_c = build()
            monkeypatch.setenv("REPRO_COMPILED", "off")
            dense_np, loads_np, congestion_np = build()
        finally:
            compiled_backend._reset_provider_cache()
        for name in ("dist", "next_eid"):
            a, b = getattr(dense_c, name), getattr(dense_np, name)
            assert a.dtype == b.dtype == np.int32, name
            assert np.array_equal(a, b), name
        assert loads_c.dtype == loads_np.dtype == np.int64
        assert np.array_equal(loads_c, loads_np)
        assert congestion_c == congestion_np

    @pytest.mark.parametrize("family", ["mesh_2", "hypercube", "de_bruijn"])
    def test_dense_tables_hold_two_matrices(self, family):
        """After ``ensure_dense`` on a 1024-node machine, the tables hold
        the two n x n int32 matrices plus O(n + E) bytes (the C pass's
        int64 link loads), on whichever build path runs."""
        import tracemalloc

        spec = family_spec(family)
        # Import what a build imports (scipy off the C path) untraced.
        NextHopTables(spec.build_with_size(16)).ensure_dense()
        machine = spec.build_with_size(1024)
        n = machine.num_nodes
        num_edges = machine.csr_adjacency().num_directed_edges
        tracemalloc.start()
        try:
            tables = NextHopTables(machine)
            tables.ensure_dense()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert n == 1024
        assert held <= 2 * 4 * n * n + 8 * (n + num_edges), held

    def test_disconnected_adjacency_raises_on_both_builds(self):
        """Machines are connected by construction; the dense builds
        still refuse two disjoint edges with the same error."""
        from repro.routing.tables import _numpy_dense
        from repro.topologies.base import CSRAdjacency

        csr = CSRAdjacency(
            np.array([0, 1, 2, 3, 4], dtype=np.int32),
            np.array([1, 0, 3, 2], dtype=np.int32),
            np.array([0, 1, 2, 3], dtype=np.int32),
        )
        builds = [_numpy_dense]
        provider = compiled_backend.get_provider()
        if provider is not None:
            builds.append(provider.tables)
        for build in builds:
            with pytest.raises(RuntimeError, match="machine graph is disconnected"):
                build(csr)

    def test_shared_tables_cached_per_machine(self):
        m = build_ring(8)
        assert NextHopTables.shared(m) is NextHopTables.shared(m)
        sim_a, sim_b = RoutingSimulator(m), RoutingSimulator(m, policy="fifo")
        assert sim_a.tables is sim_b.tables


class TestSimulator:
    def test_single_packet_takes_distance_ticks(self):
        m = build_linear_array(10)
        sim = RoutingSimulator(m)
        res = sim.route([[0, 9]])
        assert res.total_time == 9
        assert res.num_packets == 1

    def test_all_delivered(self):
        m = build_mesh(4, 2)
        sim = RoutingSimulator(m)
        msgs = symmetric_traffic(16).sample_messages(100, seed=0)
        res = sim.route([[s, d] for s, d in msgs])
        assert np.all(res.delivery_times >= 0)
        assert res.num_packets == 100

    def test_edge_capacity_respected(self):
        """No directed link ever carries more packets than elapsed ticks."""
        m = build_linear_array(6)
        sim = RoutingSimulator(m)
        res = sim.route([[0, 5]] * 10)
        assert res.max_edge_traffic <= res.total_time

    def test_serialisation_on_shared_link(self):
        """10 packets over the same 1-link bottleneck need >= 10 ticks."""
        m = build_linear_array(2)
        sim = RoutingSimulator(m)
        res = sim.route([[0, 1]] * 10)
        assert res.total_time == 10

    def test_empty_batch(self):
        """An empty batch has rate 0.0 (not inf) and zero latency."""
        m = build_ring(6)
        res = RoutingSimulator(m).route([])
        assert res.total_time == 0
        assert res.delivery_rate == 0.0
        assert res.mean_latency == 0.0

    def test_self_message_instant(self):
        m = build_ring(6)
        res = RoutingSimulator(m).route([[2, 2]])
        assert res.total_time == 0

    def test_self_message_only_batch_rates(self):
        """Self-messages deliver in zero ticks: infinite rate, zero latency."""
        m = build_ring(6)
        res = RoutingSimulator(m).route([[2, 2], [4, 4]])
        assert res.total_time == 0
        assert res.num_packets == 2
        assert res.delivery_rate == float("inf")
        assert res.mean_latency == 0.0

    def test_waypoint_itinerary(self):
        m = build_linear_array(10)
        res = RoutingSimulator(m).route([[0, 9, 0]])
        assert res.total_time == 18

    def test_duplicate_waypoints_collapsed(self):
        m = build_linear_array(6)
        res = RoutingSimulator(m).route([[0, 3, 3, 3, 5]])
        assert res.total_time == 5

    def test_fifo_policy(self):
        m = build_mesh(4, 2)
        sim = RoutingSimulator(m, policy="fifo")
        msgs = symmetric_traffic(16).sample_messages(64, seed=1)
        res = sim.route([[s, d] for s, d in msgs])
        assert res.num_packets == 64

    def test_invalid_policy(self):
        with pytest.raises(ValueError):
            RoutingSimulator(build_ring(6), policy="lifo")

    def test_invalid_itinerary(self):
        with pytest.raises(ValueError):
            RoutingSimulator(build_ring(6)).route([[3]])

    def test_mean_latency_at_least_distance(self):
        m = build_linear_array(8)
        res = RoutingSimulator(m).route([[0, 7], [7, 0]])
        assert res.mean_latency >= 7

    def test_weak_machine_slower(self):
        """A weak hypercube delivers the same symmetric batch no faster
        than the strong hypercube."""
        msgs = symmetric_traffic(16).sample_messages(200, seed=2)
        its = [[s, d] for s, d in msgs]
        strong = RoutingSimulator(build_hypercube(4)).route(its)
        weak = RoutingSimulator(build_weak_hypercube(4)).route(its)
        assert weak.total_time >= strong.total_time

    def test_weak_port_limit_one_send_per_node(self):
        """On a weak star-free machine, a node fanning out k packets to k
        different neighbours needs k ticks."""
        m = build_weak_hypercube(3)
        centre = 0
        nbrs = sorted(m.graph.neighbors(centre))
        res = RoutingSimulator(m).route([[centre, nb] for nb in nbrs])
        assert res.total_time == len(nbrs)

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=30))
    @settings(max_examples=15, deadline=None)
    def test_ring_batch_conservation(self, n, k):
        """Random batches on a ring: everything delivered, rate <= 2n/avgdist."""
        if n < 3:
            n = 3
        m = build_ring(n)
        rng = np.random.default_rng(7)
        msgs = [
            (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(k)
        ]
        res = RoutingSimulator(m).route([[s, d] for s, d in msgs])
        assert res.num_packets == k
        assert np.all(res.delivery_times >= 0)


class TestStrategies:
    def test_shortest_route_shape(self):
        m = build_mesh(4, 2)
        its = shortest_path_route(m, [(0, 5), (3, 9)])
        assert its == [[0, 5], [3, 9]]

    def test_shortest_route_validates(self):
        with pytest.raises(ValueError):
            shortest_path_route(build_ring(4), [(0, 9)])

    def test_valiant_adds_waypoint(self):
        m = build_mesh(4, 2)
        its = valiant_route(m, [(0, 15)], seed=0)
        assert len(its[0]) == 3
        assert its[0][0] == 0 and its[0][-1] == 15

    def test_valiant_deterministic_given_seed(self):
        m = build_mesh(4, 2)
        a = valiant_route(m, [(0, 15)] * 5, seed=9)
        b = valiant_route(m, [(0, 15)] * 5, seed=9)
        assert a == b


class TestMeasure:
    def test_symmetric_default(self):
        m = build_mesh(4, 2)
        meas = measure_bandwidth(m, seed=0)
        assert meas.traffic_name == "symmetric"
        assert meas.rate > 0

    def test_rate_definition(self):
        m = build_mesh(4, 2)
        meas = measure_bandwidth(m, num_messages=64, seed=0)
        assert meas.rate == pytest.approx(64 / meas.total_time)

    def test_mismatched_traffic_rejected(self):
        with pytest.raises(ValueError):
            measure_bandwidth(build_ring(8), traffic=symmetric_traffic(9))

    def test_invalid_strategy(self):
        with pytest.raises(ValueError):
            measure_bandwidth(build_ring(8), strategy="psychic")

    def test_mesh_beats_array(self):
        """Theta separation visible at n=64: mesh rate >> array rate."""
        arr = measure_bandwidth(build_linear_array(64), seed=1)
        mesh = measure_bandwidth(build_mesh(8, 2), seed=1)
        assert mesh.rate > 2 * arr.rate

    def test_permutation_traffic_measurable(self):
        m = build_de_bruijn(5)
        meas = measure_bandwidth(
            m, traffic=permutation_traffic(32, seed=0), seed=0
        )
        assert meas.rate > 0

    def test_valiant_on_hypercube(self):
        m = build_hypercube(4)
        meas = measure_bandwidth(m, strategy="valiant", seed=0)
        assert meas.rate > 0
