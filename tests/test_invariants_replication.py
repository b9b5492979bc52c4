"""Tests for the simulator's validate mode and the replication harness."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import Replication, replicate
from repro.routing import RoutingSimulator, measure_bandwidth
from repro.routing import simulator
from repro.topologies import (
    build_de_bruijn,
    build_mesh,
    build_weak_hypercube,
    build_weak_ppn,
)
from repro.traffic import symmetric_traffic


class TestValidateMode:
    @pytest.mark.parametrize("policy", ["fifo", "farthest"])
    def test_invariants_hold_under_load(self, policy):
        """Heavy symmetric load never violates link or port invariants."""
        m = build_mesh(5, 2)
        sim = RoutingSimulator(m, policy=policy, validate=True)
        msgs = symmetric_traffic(25).sample_messages(300, seed=0)
        res = sim.route([[s, d] for s, d in msgs])
        assert res.num_packets == 300

    def test_weak_machine_port_invariant_checked(self):
        m = build_weak_hypercube(4)
        sim = RoutingSimulator(m, validate=True)
        msgs = symmetric_traffic(16).sample_messages(200, seed=1)
        res = sim.route([[s, d] for s, d in msgs])
        assert res.num_packets == 200

    def test_weak_ppn_under_validation(self):
        m = build_weak_ppn(3)
        sim = RoutingSimulator(m, validate=True)
        msgs = symmetric_traffic(m.num_nodes).sample_messages(100, seed=2)
        assert sim.route([[s, d] for s, d in msgs]).num_packets == 100

    def test_validated_matches_unvalidated(self):
        """Validation is observation-only: identical results."""
        m = build_de_bruijn(5)
        msgs = symmetric_traffic(32).sample_messages(128, seed=3)
        its = [[s, d] for s, d in msgs]
        a = RoutingSimulator(m, validate=True).route(its)
        b = RoutingSimulator(m, validate=False).route(its)
        assert a.total_time == b.total_time
        assert np.array_equal(a.delivery_times, b.delivery_times)

    def test_auto_validates_on_the_fast_engine(self, monkeypatch):
        """The C kernel has no invariant checks, so the default engine
        resolves to fast under validation -- and the checks run."""
        m = build_mesh(4, 2)
        sim = RoutingSimulator(m, engine="auto", validate=True)
        assert sim._resolve_engine() == "fast"
        flags = []
        real = simulator.route_many

        def spy(*args, **kwargs):
            flags.append(kwargs["validate"])
            return real(*args, **kwargs)

        monkeypatch.setattr(simulator, "route_many", spy)
        assert sim.route([[0, 15], [5, 10]]).num_packets == 2
        assert flags == [True]

    def test_compiled_refuses_validate(self):
        """Asking the C kernel to validate fails at construction, with
        or without a toolchain, instead of silently checking nothing."""
        with pytest.raises(ValueError, match="validate"):
            RoutingSimulator(build_mesh(4, 2), engine="compiled", validate=True)


class TestReplication:
    def test_summary_statistics(self):
        rep = Replication(values=(1.0, 2.0, 3.0))
        assert rep.mean == 2.0
        assert rep.min == 1.0 and rep.max == 3.0
        assert rep.n == 3
        assert rep.std == pytest.approx(1.0)
        assert rep.cv == pytest.approx(0.5)

    def test_single_value_no_std(self):
        rep = Replication(values=(5.0,))
        assert rep.std == 0.0

    def test_cv_all_zero_replicates_is_zero(self):
        """Regression: a degenerate all-zero replication has cv 0.0, not
        inf -- zero spread around a zero mean is no dispersion at all."""
        rep = Replication(values=(0.0, 0.0, 0.0))
        assert rep.cv == 0.0

    def test_cv_zero_mean_with_spread_is_inf(self):
        """inf stays reserved for genuine spread that cancels to mean 0."""
        rep = Replication(values=(-1.0, 1.0))
        assert rep.mean == 0.0
        assert rep.cv == float("inf")

    def test_replicate_is_reproducible(self):
        calls = []

        def meas(seed):
            calls.append(seed)
            return float(seed * seed)

        rep1 = replicate(meas, num_seeds=4, base_seed=10)
        rep2 = replicate(meas, num_seeds=4, base_seed=10)
        assert rep1.values == rep2.values
        assert calls[:4] == [10, 11, 12, 13]

    def test_str(self):
        assert "+/-" in str(Replication(values=(1.0, 2.0)))

    def test_invalid_num_seeds(self):
        with pytest.raises(ValueError):
            replicate(lambda s: 1.0, num_seeds=0)

    def test_measured_bandwidth_low_dispersion(self):
        """Measured bandwidth is stable across seeds (cv < 20%) -- the
        quantity the paper treats as a machine constant behaves like
        one."""
        m = build_mesh(6, 2)
        rep = replicate(
            lambda seed: measure_bandwidth(m, seed=seed).rate, num_seeds=6
        )
        assert rep.cv < 0.2, rep
