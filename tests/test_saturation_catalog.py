"""Tests for open-loop saturation sweeps, the host-size catalogue, and
the expander-gap experiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.routing import (
    RoutingSimulator,
    saturation_bandwidth,
    saturation_sweep,
)
from repro.routing import compiled as compiled_backend
from repro.theory import (
    catalog_consistency_violations,
    expander_gap_experiment,
    full_catalog,
)
from repro.topologies import build_de_bruijn, build_linear_array, build_mesh, build_ring

COMPILED_AVAILABLE = compiled_backend.capability()["available"]


def _int64(values):
    return np.asarray(values, dtype=np.int64)


#: Release times reach the simulator as lists or as int64 arrays (the
#: form saturation sweeps pass); both must behave the same.
RELEASE_FORMS = (list, _int64)


class TestReleaseTimes:
    def test_staggered_injection_delays_delivery(self):
        m = build_linear_array(6)
        sim = RoutingSimulator(m)
        for form in RELEASE_FORMS:
            res = sim.route([[0, 5]], release_times=form([10]))
            # Released at tick 10: the first hop completes at tick 10, so
            # delivery lands at 10 + 5 - 1.
            assert res.total_time == 14

    def test_mixed_release(self):
        m = build_ring(8)
        sim = RoutingSimulator(m)
        for form in RELEASE_FORMS:
            res = sim.route([[0, 2], [0, 2]], release_times=form([0, 6]))
            times = sorted(res.delivery_times.tolist())
            assert times[0] == 2
            assert times[1] == 7  # released at 6, 2 hops, first at tick 6

    def test_self_message_released_late(self):
        m = build_ring(8)
        for form in RELEASE_FORMS:
            res = RoutingSimulator(m).route([[3, 3]], release_times=form([7]))
            assert res.delivery_times[0] == 7

    def test_wrong_length_rejected(self):
        m = build_ring(8)
        for form in RELEASE_FORMS:
            with pytest.raises(ValueError, match="^2 release times for 1 packets$"):
                RoutingSimulator(m).route([[0, 1]], release_times=form([0, 1]))

    def test_negative_rejected(self):
        m = build_ring(8)
        for form in RELEASE_FORMS:
            with pytest.raises(
                ValueError, match="^negative release time for packet 1$"
            ):
                RoutingSimulator(m).route(
                    [[0, 1], [2, 3]], release_times=form([0, -1])
                )

    def test_same_result_as_zero_release(self):
        m = build_mesh(4, 2)
        msgs = [[0, 15], [3, 12], [5, 10]]
        a = RoutingSimulator(m).route(msgs)
        for form in RELEASE_FORMS:
            b = RoutingSimulator(m).route(msgs, release_times=form([0, 0, 0]))
            assert a.total_time == b.total_time


class TestSaturation:
    def test_points_have_expected_shape(self):
        pts = saturation_sweep(build_mesh(6, 2), duration=48, seed=0)
        assert len(pts) >= 4
        rates = [p.offered_rate for p in pts]
        assert rates == sorted(rates)

    def test_latency_rises_past_saturation(self):
        """On a Theta(1)-bandwidth machine, high offered load must blow
        up latency relative to low load."""
        pts = saturation_sweep(
            build_linear_array(32), rates=[0.05, 1.0], duration=96, seed=0
        )
        assert pts[-1].mean_latency > 3 * pts[0].mean_latency

    def test_delivered_rate_monotone_below_saturation(self):
        pts = saturation_sweep(
            build_de_bruijn(6), rates=[0.05, 0.1, 0.2], duration=96, seed=0
        )
        rates = [p.delivered_rate for p in pts]
        assert rates == sorted(rates)

    def test_saturation_bandwidth_tracks_beta(self):
        """Plateau throughput lands within constants of the measured
        batch bandwidth."""
        from repro.routing import measure_bandwidth

        m = build_mesh(8, 2)
        sat = saturation_bandwidth(m, duration=96, seed=0)
        batch = measure_bandwidth(m, seed=0).rate
        assert batch / 4 <= sat <= batch * 4

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            saturation_sweep(build_ring(8), rates=[1.5])

    def test_hoisted_sampler_gives_identical_point_values(self):
        """The sweep builds ``traffic.sampler()`` once and draws every
        rate point from it.  Replaying the loop with a *fresh* sampler
        per rate (the old per-point construction) must produce the
        exact same workloads, hence the exact same curve."""
        from repro.routing.saturation import SaturationPoint
        from repro.traffic import symmetric_traffic

        machine = build_mesh(6, 2)
        n = machine.num_nodes
        rates = [0.05, 0.2, 0.7]
        duration = 48
        pts = saturation_sweep(
            machine, rates=rates, duration=duration, seed=11
        )
        # Un-hoisted replay: same rng stream, sampler rebuilt per rate,
        # each rate routed alone instead of through the shared batch.
        traffic = symmetric_traffic(n)
        rng = np.random.default_rng(11)
        sim = RoutingSimulator(machine, policy="fifo")
        expected = []
        for r in rates:
            inject = rng.random((duration, n)) < r
            count = int(inject.sum())
            assert count > 0  # keep the replay exercising every rate
            msgs = traffic.sampler()(count, seed=rng)  # fresh sampler
            ticks, nodes = np.nonzero(inject)
            dst = np.asarray(msgs, dtype=np.int64)[:, 1]
            dst = np.where(dst == nodes, (dst + 1) % n, dst)
            its = np.column_stack([nodes, dst]).tolist()
            result = sim.route(its, release_times=ticks.tolist())
            latencies = result.delivery_times - ticks
            expected.append(
                SaturationPoint(
                    offered_rate=float(r),
                    delivered_rate=result.num_packets
                    / max(1, result.total_time),
                    mean_latency=float(latencies.mean()),
                    p99_latency=float(np.percentile(latencies, 99)),
                    max_queue=result.max_queue,
                )
            )
        assert pts == expected

    @pytest.mark.parametrize(
        "engine",
        ["auto", "reference"] + (["compiled"] if COMPILED_AVAILABLE else []),
    )
    def test_sweep_engine_independent(self, engine):
        """Low-rate sweeps are mostly idle ticks, which the engines
        handle differently; the curve must not depend on the engine."""
        machine = build_de_bruijn(5)
        kwargs = dict(
            rates=[0.01, 0.05, 0.4], duration=96, seed=3
        )
        assert saturation_sweep(machine, engine=engine, **kwargs) == (
            saturation_sweep(machine, engine="fast", **kwargs)
        )

    def test_array_saturates_below_mesh(self):
        sat_arr = saturation_bandwidth(build_linear_array(64), duration=64, seed=0)
        sat_mesh = saturation_bandwidth(build_mesh(8, 2), duration=64, seed=0)
        assert sat_mesh > 2 * sat_arr


class TestCatalog:
    def test_full_catalog_covers_all_pairs(self):
        entries = full_catalog(guests=["mesh_2", "de_bruijn"], hosts=["tree", "mesh_2"])
        assert len(entries) == 4

    def test_no_consistency_violations_small(self):
        entries = full_catalog(
            guests=["mesh_2", "mesh_3", "de_bruijn", "tree", "xtree"],
            hosts=["linear_array", "tree", "xtree", "mesh_2", "butterfly"],
        )
        assert catalog_consistency_violations(entries) == []

    def test_no_consistency_violations_everything(self):
        """The entire registry matrix obeys monotonicity/diagonal laws."""
        assert catalog_consistency_violations() == []

    def test_known_cells(self):
        from repro.asymptotics import LogPoly

        entries = {
            (e.guest_key, e.host_key): e.bound.expr
            for e in full_catalog(guests=["hypercube"], hosts=["butterfly", "hypercube"])
        }
        # Strong hypercube guest: butterfly hosts only at Theta(1)...
        assert entries[("hypercube", "butterfly")] == LogPoly.one()
        # ... but hypercube hosts at full size.
        assert entries[("hypercube", "hypercube")] == LogPoly.n()


class TestExpanderGap:
    @pytest.fixture(scope="class")
    def gap(self):
        return expander_gap_experiment(sizes=[64, 128, 256])

    def test_bandwidth_blind(self, gap):
        """Normalised beta is Theta(1) for *both* families: the bandwidth
        method cannot separate them."""
        for key in ("de_bruijn", "expander"):
            norms = [p.normalized_beta for p in gap[key]]
            assert max(norms) <= 3 * min(norms), (key, norms)

    def test_expansion_separates(self, gap):
        """lambda_2 decays for de Bruijn but stays flat for the expander
        (the invariant the congestion method exploits)."""
        db = [p.lambda2 for p in gap["de_bruijn"]]
        ex = [p.lambda2 for p in gap["expander"]]
        assert db[-1] < 0.75 * db[0]  # decaying
        assert ex[-1] > 0.6 * ex[0]  # flat
        assert ex[-1] > 2 * db[-1]  # separated at the largest size

    def test_brackets_overlap_scale(self, gap):
        for a, b in zip(gap["de_bruijn"], gap["expander"]):
            assert a.guest_size == b.guest_size
            assert a.beta_upper >= b.beta_lower / 4
            assert b.beta_upper >= a.beta_lower / 4
