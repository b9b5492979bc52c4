"""Tests for traffic distributions and traffic multigraphs."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.traffic import (
    TrafficDistribution,
    TrafficMultigraph,
    bit_reversal_traffic,
    hot_spot_traffic,
    in_K_class,
    k_class_parameters,
    permutation_traffic,
    quasi_symmetric_traffic,
    scale_multigraph,
    symmetric_traffic,
    transpose_traffic,
)
from tests.hypothesis_profiles import DETERMINISM


def _rejects(message: str):
    return pytest.raises(ValueError, match=f"^{re.escape(message)}$")


class TestDistributionBasics:
    def test_rejects_self_pairs(self):
        with _rejects("self-pair (1, 1) not allowed"):
            TrafficDistribution(4, {(1, 1): 1.0})

    def test_rejects_out_of_range(self):
        with _rejects("pair (0, 5) out of range for n=4"):
            TrafficDistribution(4, {(0, 5): 1.0})

    def test_rejects_negative_weight(self):
        with _rejects("negative weight -1.0 for pair (0, 1)"):
            TrafficDistribution(4, {(0, 1): -1.0})

    def test_rejects_empty_support(self):
        with _rejects("traffic distribution must have positive support"):
            TrafficDistribution(4, {(0, 1): 0.0})

    @pytest.mark.parametrize(
        "pairs, message",
        [
            # The first offending pair in dict order is the one named...
            ({(0, 1): 1.0, (2, 2): 1.0, (0, 9): 1.0}, "self-pair (2, 2) not allowed"),
            ({(0, 1): -2, (3, 3): 1.0}, "negative weight -2 for pair (0, 1)"),
            # ...checked for range first, then self-pair, then sign.
            ({(9, 9): -1.0}, "pair (9, 9) out of range for n=4"),
            ({(2, 2): -1.0}, "self-pair (2, 2) not allowed"),
            ({}, "traffic distribution must have positive support"),
        ],
    )
    def test_rejection_names_the_first_offender(self, pairs, message):
        with _rejects(message):
            TrafficDistribution(4, pairs)

    def test_array_constructor_rejects_alike(self):
        with _rejects("self-pair (1, 1) not allowed"):
            TrafficDistribution.from_codes(4, [1, 5], [1.0, 1.0])
        with _rejects("pair (4, 0) out of range for n=4"):
            TrafficDistribution.from_codes(4, [16], [1.0])
        with _rejects("negative weight -1.0 for pair (0, 1)"):
            TrafficDistribution.from_codes(4, [1], [-1.0])
        with _rejects("traffic distribution must have positive support"):
            TrafficDistribution.from_codes(4, [1], [0.0])

    def test_zero_weights_dropped(self):
        d = TrafficDistribution(4, {(0, 1): 1.0, (1, 2): 0.0})
        assert d.support_size == 1

    def test_restrict(self):
        d = symmetric_traffic(6)
        r = d.restrict([0, 2, 4])
        assert r.n == 3
        assert r.support_size == 6  # 3*2 ordered pairs


class TestSymmetric:
    def test_full_support(self):
        d = symmetric_traffic(5)
        assert d.support_size == 20

    def test_is_quasi_symmetric(self):
        assert symmetric_traffic(6).is_quasi_symmetric()

    def test_sampling_range(self):
        d = symmetric_traffic(8)
        msgs = d.sample_messages(100, seed=0)
        assert len(msgs) == 100
        assert all(0 <= s < 8 and 0 <= t < 8 and s != t for s, t in msgs)

    def test_sampling_deterministic(self):
        d = symmetric_traffic(8)
        assert d.sample_messages(50, seed=5) == d.sample_messages(50, seed=5)

    def test_sampling_roughly_uniform(self):
        d = symmetric_traffic(4)
        msgs = d.sample_messages(6000, seed=1)
        counts = {}
        for m in msgs:
            counts[m] = counts.get(m, 0) + 1
        assert len(counts) == 12
        assert max(counts.values()) < 2.0 * min(counts.values())


class TestSampler:
    @given(
        n=st.integers(min_value=2, max_value=6),
        m=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        data=st.data(),
    )
    @DETERMINISM
    def test_draws_replay_generator_choice(self, n, m, seed, data):
        """Draws equal ``Generator.choice(len(w), size=m, p=w / w.sum())``
        over the support, for any weights and pair order, so a numpy
        change to ``choice`` fails here instead of silently moving every
        draw stream."""
        order = data.draw(
            st.permutations([(s, d) for s in range(n) for d in range(n) if s != d])
        )
        weights = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1e6),
                min_size=len(order),
                max_size=len(order),
            )
        )
        assume(any(w > 0 for w in weights))
        dist = TrafficDistribution(n, dict(zip(order, weights)))
        support = list(dist.pairs)
        w = np.array(list(dist.pairs.values()))
        idx = np.random.default_rng(seed).choice(len(w), size=m, p=w / w.sum())
        expected = [support[i] for i in idx]
        assert dist.sampler()(m, seed).tolist() == [list(p) for p in expected]
        assert dist.sample_messages(m, seed) == expected


class TestQuasiSymmetric:
    def test_support_fraction(self):
        d = quasi_symmetric_traffic(10, fraction=0.5, seed=0)
        assert d.support_size == 45  # half of 90

    def test_equal_weights(self):
        d = quasi_symmetric_traffic(10, fraction=0.3, seed=0)
        assert d.is_quasi_symmetric()

    def test_full_fraction_is_symmetric_support(self):
        d = quasi_symmetric_traffic(6, fraction=1.0, seed=0)
        assert d.support_size == 30

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            quasi_symmetric_traffic(6, fraction=0.0)

    @given(st.integers(min_value=4, max_value=30))
    @settings(max_examples=20)
    def test_no_self_pairs_by_decode(self, n):
        d = quasi_symmetric_traffic(n, fraction=0.7, seed=3)
        assert all(s != t for s, t in d.pairs)


class TestWorkloads:
    def test_permutation_is_bijection(self):
        d = permutation_traffic(16, seed=0)
        sources = [s for s, _ in d.pairs]
        dests = [t for _, t in d.pairs]
        assert sorted(sources) == list(range(16))
        assert sorted(dests) == list(range(16))

    def test_permutation_fixed_point_free(self):
        d = permutation_traffic(16, seed=0)
        assert all(s != t for s, t in d.pairs)

    def test_transpose(self):
        d = transpose_traffic(16)
        assert (1, 4) in d.pairs  # (0,1) -> (1,0) on a 4x4 grid

    def test_transpose_requires_square(self):
        with pytest.raises(ValueError):
            transpose_traffic(15)

    def test_bit_reversal(self):
        d = bit_reversal_traffic(8)
        assert (1, 4) in d.pairs  # 001 -> 100

    def test_bit_reversal_requires_pow2(self):
        with pytest.raises(ValueError):
            bit_reversal_traffic(12)

    def test_hot_spot_mass(self):
        d = hot_spot_traffic(8, hot=3, hot_fraction=0.5)
        hot_weight = sum(w for (s, t), w in d.pairs.items() if t == 3)
        assert hot_weight / d.total_weight == pytest.approx(0.5, abs=0.05)

    def test_hot_spot_invalid(self):
        with pytest.raises(ValueError):
            hot_spot_traffic(8, hot=9)


class TestMultigraph:
    def test_from_distribution_integral(self):
        d = TrafficDistribution(4, {(0, 1): 0.5, (2, 3): 0.25})
        tm = TrafficMultigraph.from_distribution(d)
        assert tm.weights[(0, 1)] == 2
        assert tm.weights[(2, 3)] == 1

    def test_from_distribution_merges_directions(self):
        d = TrafficDistribution(4, {(0, 1): 1.0, (1, 0): 1.0})
        tm = TrafficMultigraph.from_distribution(d)
        assert tm.weights[(0, 1)] == 2 or tm.weights[(0, 1)] == 1
        assert tm.num_distinct_pairs == 1

    def test_add_edges_accumulates(self):
        tm = TrafficMultigraph(4)
        tm.add_edges(0, 1, 2)
        tm.add_edges(1, 0, 3)
        assert tm.weights[(0, 1)] == 5
        assert tm.num_simple_edges == 5

    def test_no_self_loops(self):
        tm = TrafficMultigraph(4)
        with pytest.raises(ValueError):
            tm.add_edges(2, 2)

    def test_scale(self):
        tm = TrafficMultigraph(4, {(0, 1): 2})
        assert scale_multigraph(tm, 3).weights[(0, 1)] == 6

    def test_scale_preserves_original(self):
        tm = TrafficMultigraph(4, {(0, 1): 2})
        scale_multigraph(tm, 3)
        assert tm.weights[(0, 1)] == 2

    def test_support_nodes(self):
        tm = TrafficMultigraph(6, {(0, 1): 1, (3, 4): 2})
        assert tm.support_nodes() == {0, 1, 3, 4}

    def test_to_networkx(self):
        tm = TrafficMultigraph(4, {(0, 1): 5})
        g = tm.to_networkx()
        assert g[0][1]["weight"] == 5
        assert g.number_of_nodes() == 4

    @given(st.integers(min_value=1, max_value=20))
    def test_scale_multiplies_E(self, x):
        tm = TrafficMultigraph(5, {(0, 1): 2, (1, 2): 3})
        assert scale_multigraph(tm, x).num_simple_edges == 5 * x


class TestKClass:
    def test_complete_graph_in_class(self):
        n = 12
        tm = TrafficMultigraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                tm.add_edges(u, v, 1)
        r, s = k_class_parameters(tm)
        assert (r, s) == (n, 1)
        assert in_K_class(tm, n, 1)

    def test_sparse_graph_not_in_class(self):
        tm = TrafficMultigraph(100, {(0, 1): 1})
        assert not in_K_class(tm, 100, 1)

    def test_multiplicity_violation(self):
        n = 6
        tm = TrafficMultigraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                tm.add_edges(u, v, 1)
        tm.add_edges(0, 1, 10)
        assert not in_K_class(tm, n, 1)
        assert in_K_class(tm, n, 11)

    def test_scaling_stays_in_class_with_scaled_s(self):
        n = 8
        tm = TrafficMultigraph(n)
        for u in range(n):
            for v in range(u + 1, n):
                tm.add_edges(u, v, 1)
        assert in_K_class(scale_multigraph(tm, 4), n, 4)
