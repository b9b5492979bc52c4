"""Tests for embeddings, embedders, and congestion lower bounds."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding import (
    Embedding,
    bfs_embedding,
    congestion_lower_bound,
    cut_congestion_bound,
    identity_embedding,
    random_embedding,
    spectral_embedding,
)
from repro.embedding.lower_bounds import cut_edges, cut_profile, prefix_side
from repro.routing import compiled as compiled_backend
from repro.topologies import (
    build_de_bruijn,
    build_linear_array,
    build_mesh,
    build_ring,
    build_tree,
)
from repro.topologies.registry import all_family_keys, family_spec
from repro.traffic import TrafficMultigraph


def _ring_graph(n):
    return nx.cycle_graph(n)


class TestEmbeddingObject:
    def test_identity_ring_into_ring(self):
        host = build_ring(8)
        emb = identity_embedding(host, _ring_graph(8))
        assert emb.congestion() == 1
        assert emb.dilation() == 1
        assert emb.load() == 1

    def test_validation_rejects_noninjective(self):
        host = build_ring(4)
        with pytest.raises(ValueError):
            Embedding(
                host,
                {(0, 1): 1},
                {0: 0, 1: 0},
                {(0, 1): [0]},
            )

    def test_validation_rejects_broken_path(self):
        host = build_linear_array(4)
        with pytest.raises(ValueError):
            Embedding(host, {(0, 1): 1}, {0: 0, 1: 3}, {(0, 1): [0, 3]})

    def test_validation_rejects_wrong_endpoints(self):
        host = build_linear_array(4)
        with pytest.raises(ValueError):
            Embedding(host, {(0, 1): 1}, {0: 0, 1: 3}, {(0, 1): [0, 1, 2]})

    def test_validation_rejects_missing_path(self):
        host = build_linear_array(4)
        with pytest.raises(ValueError):
            Embedding(host, {(0, 1): 1}, {0: 0, 1: 3}, {})

    def test_multiplicity_weighted_congestion(self):
        host = build_linear_array(3)
        tm = TrafficMultigraph(2, {(0, 1): 5})
        emb = Embedding.from_traffic(host, tm, {0: 0, 1: 2}, {(0, 1): [0, 1, 2]})
        assert emb.congestion() == 5
        assert emb.total_multiplicity == 5

    def test_average_dilation(self):
        host = build_linear_array(4)
        emb = Embedding(
            host,
            {(0, 1): 1, (1, 2): 1},
            {0: 0, 1: 1, 2: 3},
            {(0, 1): [0, 1], (1, 2): [1, 2, 3]},
        )
        assert emb.average_dilation() == pytest.approx(1.5)
        assert emb.dilation() == 2

    def test_expansion(self):
        host = build_ring(8)
        emb = identity_embedding(host, _ring_graph(4))
        assert emb.expansion() == 2.0

    def test_edge_loads_sum(self):
        host = build_ring(6)
        emb = identity_embedding(host, _ring_graph(6))
        loads = emb.edge_loads()
        assert sum(loads.values()) == 6  # each guest edge length 1


class TestEmbedders:
    @pytest.mark.parametrize(
        "embedder", [identity_embedding, random_embedding, bfs_embedding, spectral_embedding]
    )
    def test_all_produce_valid_embeddings(self, embedder):
        host = build_mesh(4, 2)
        guest = nx.cycle_graph(12)
        emb = embedder(host, guest)
        assert emb.load() == 1
        assert emb.congestion() >= 1

    def test_guest_too_big_rejected(self):
        with pytest.raises(ValueError):
            identity_embedding(build_ring(4), nx.cycle_graph(5))

    def test_random_seeded(self):
        host = build_mesh(4, 2)
        guest = nx.cycle_graph(16)
        a = random_embedding(host, guest, seed=3)
        b = random_embedding(host, guest, seed=3)
        assert a.vertex_map == b.vertex_map

    def test_bfs_beats_random_on_ring_into_array(self):
        """Locality-preserving linearisation of a ring into an array
        should not be worse than a random scatter."""
        host = build_linear_array(32)
        guest = nx.cycle_graph(32)
        bfs = bfs_embedding(host, guest)
        rnd = random_embedding(host, guest, seed=0)
        assert bfs.congestion() <= rnd.congestion()

    def test_traffic_multigraph_guest(self):
        host = build_mesh(3, 2)
        tm = TrafficMultigraph(4, {(0, 1): 2, (2, 3): 1})
        emb = bfs_embedding(host, tm)
        assert emb.total_multiplicity == 3

    def test_spectral_mesh_into_mesh_good(self):
        host = build_mesh(4, 2)
        guest = nx.grid_2d_graph(4, 4)
        emb = spectral_embedding(host, guest)
        assert emb.congestion() <= 16  # far below the ~n of random


class TestCutBounds:
    def test_profile_sides_cross_min_cut_links(self, mesh8):
        """Each size's witness side has that size and crosses exactly
        the profile's count of links."""
        profile = cut_profile(mesh8)
        n = mesh8.num_nodes
        for p in range(1, n):
            side = prefix_side(mesh8, p)
            assert len(side) == p
            assert cut_edges(mesh8, side) == profile.min_cut[p]
        assert profile.min_cut[n // 2] == 8  # a straight bisector

    def test_cut_edges_counts_each_crossing_link_once(self, mesh8):
        side = {v for v in range(mesh8.num_nodes) if v % 3 == 0}
        expected = sum(1 for u, v in mesh8.edges() if (u in side) != (v in side))
        assert cut_edges(mesh8, side) == expected

    @pytest.mark.parametrize("n_guest,multiplicity", [(None, 1), (40, 1), (20, 3)])
    def test_profile_bound_is_the_best_single_cut_bound(self, n_guest, multiplicity):
        """The vector expression over cut sizes equals the best
        ``cut_congestion_bound`` over the witness sides."""
        for m in (build_mesh(7, 2), build_tree(5), build_de_bruijn(6)):
            guest = m.num_nodes if n_guest is None else n_guest
            best = max(
                cut_congestion_bound(m, guest, prefix_side(m, p), multiplicity)
                for p in range(1, m.num_nodes)
            )
            assert congestion_lower_bound(m, n_guest, multiplicity) == best

    @pytest.mark.parametrize("size", [64, 256])
    @pytest.mark.parametrize("family", all_family_keys())
    def test_compiled_sweeps_match_numpy_spec(self, family, size, monkeypatch):
        """The C per-root sweeps give the profile the NumPy spec does,
        witnesses included.  Each side builds its own machine."""
        if not compiled_backend.capability()["available"]:
            pytest.skip("no compiled provider to compare")

        def build():
            compiled_backend._reset_provider_cache()
            machine = family_spec(family).build_with_size(size)
            return cut_profile(machine), congestion_lower_bound(machine)

        try:
            profile_c, bound_c = build()
            monkeypatch.setenv("REPRO_COMPILED", "off")
            profile_np, bound_np = build()
        finally:
            compiled_backend._reset_provider_cache()
        assert profile_c.min_cut.dtype == profile_np.min_cut.dtype == np.int64
        assert np.array_equal(profile_c.min_cut, profile_np.min_cut)
        assert np.array_equal(profile_c.witness, profile_np.witness)
        assert bound_c == bound_np

    def test_cut_bound_linear_array(self):
        """Middle cut of an array: K_n congestion >= (n/2)^2."""
        m = build_linear_array(16)
        bound = cut_congestion_bound(m, 16, set(range(8)))
        assert bound == 64.0

    def test_cut_bound_smaller_guest_can_vanish(self):
        """A guest that fits on one side forces nothing across."""
        m = build_linear_array(16)
        assert cut_congestion_bound(m, 8, set(range(8))) == 0.0

    def test_cut_bound_multiplicity_scales(self):
        m = build_linear_array(16)
        b1 = cut_congestion_bound(m, 16, set(range(8)), multiplicity=1)
        b3 = cut_congestion_bound(m, 16, set(range(8)), multiplicity=3)
        assert b3 == 3 * b1

    def test_cut_bound_rejects_improper(self):
        m = build_ring(8)
        with pytest.raises(ValueError):
            cut_congestion_bound(m, 8, set())
        with pytest.raises(ValueError):
            cut_congestion_bound(m, 8, set(range(8)))

    def test_cut_bound_rejects_oversized_guest(self):
        m = build_ring(8)
        with pytest.raises(ValueError):
            cut_congestion_bound(m, 9, {0, 1})

    def test_lower_bound_tree_quadratic(self):
        """Tree root cut forces ~n^2/4 pairs over one link."""
        m = build_tree(4)  # 31 nodes
        lb = congestion_lower_bound(m)
        assert lb >= 31 * 31 / 8

    def test_lower_bound_below_routing_congestion(self):
        """The certified lower bound never exceeds an achieved congestion."""
        from repro.bandwidth import routing_congestion

        for build in (lambda: build_mesh(5, 2), lambda: build_de_bruijn(5), lambda: build_tree(4)):
            m = build()
            assert congestion_lower_bound(m) <= routing_congestion(m) + 1

    @given(st.integers(min_value=2, max_value=14))
    @settings(max_examples=10, deadline=None)
    def test_cut_bound_monotone_in_guest(self, n_guest):
        """More guest vertices force at least as much across the cut."""
        m = build_linear_array(16)
        side = set(range(8))
        smaller = cut_congestion_bound(m, n_guest, side)
        bigger = cut_congestion_bound(m, min(16, n_guest + 2), side)
        assert bigger >= smaller
