"""Batched multi-run routing must be bit-identical to solo routing.

The batched kernel (:func:`repro.routing.engine.route_many`, surfaced
as :meth:`RoutingSimulator.route_batch`) promises that every run's
``(total_time, delivery_times, edge_traffic, max_queue)`` matches what
:meth:`RoutingSimulator.route` produces for that run alone -- across
policies, weak-machine port limits, staggered release times, ragged
multi-waypoint itineraries, and runs of wildly different lengths.
These tests enforce that contract: a Hypothesis property over random
machines and workloads, explicit early-finisher and edge cases, and
the fast CI smoke subset (2 families x 2 policies) that the
``batch-equivalence`` workflow step runs on every push.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.hypothesis_profiles import SLOW

from repro.cli import main
from repro.experiments import Replication, replicate
from repro.obs import read_events
from repro.routing import (
    RoutingSimulator,
    measure_bandwidth,
    measure_bandwidth_many,
)
from repro.routing import compiled as compiled_backend
from repro.routing import engine as fast_engine
from repro.topologies import Machine, family_spec

SMOKE_FAMILIES = ("mesh_2", "de_bruijn")
SMOKE_POLICIES = ("fifo", "farthest")
#: Engines whose route_batch must match their own solo route() -- and,
#: transitively through the engine-equivalence suite, each other's.
BATCH_ENGINES = ["auto"] + (
    ["compiled"] if compiled_backend.capability()["available"] else []
)


def _assert_runs_equal(batch, solo, context=""):
    assert len(batch) == len(solo), context
    for k, (b, s) in enumerate(zip(batch, solo)):
        tag = f"{context} run {k}"
        assert b.total_time == s.total_time, tag
        assert b.num_packets == s.num_packets, tag
        assert np.array_equal(b.delivery_times, s.delivery_times), tag
        assert b.edge_traffic == s.edge_traffic, tag
        assert b.max_queue == s.max_queue, tag


def _route_both_ways(machine, policy, runs, engine="fast"):
    # The Python engines also check the per-tick invariants; ``auto``
    # runs unvalidated, so it resolves as a default call does.
    sim = RoutingSimulator(
        machine, policy=policy, engine=engine,
        validate=engine in ("fast", "reference"),
    )
    batch = sim.route_batch(
        [its for its, _ in runs], [rel for _, rel in runs]
    )
    solo = [sim.route(its, release_times=rel) for its, rel in runs]
    _assert_runs_equal(batch, solo, f"{machine!r} {policy}")


@st.composite
def batch_workload(draw):
    """A random machine (optionally weak) plus 1-4 random runs."""
    n = draw(st.integers(min_value=4, max_value=16))
    seed = draw(st.integers(min_value=0, max_value=10**6))
    rng = np.random.default_rng(seed)
    g = nx.random_labeled_tree(n, seed=int(seed) % (2**31))
    for _ in range(draw(st.integers(min_value=0, max_value=2 * n))):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            g.add_edge(int(u), int(v))
    port_limit = draw(st.sampled_from([None, 1]))
    machine = Machine(
        g, family="random", params={"n": n, "seed": seed},
        port_limit=port_limit,
    )
    policy = draw(st.sampled_from(["fifo", "farthest"]))
    num_runs = draw(st.integers(min_value=1, max_value=4))
    runs = []
    for _ in range(num_runs):
        m = draw(st.integers(min_value=1, max_value=3 * n))
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        its = []
        for s, d in zip(src, dst):
            if rng.random() < 0.3:  # multi-waypoint itinerary
                mid = int(rng.integers(0, n))
                its.append([int(s), mid, int(d)])
            else:
                its.append([int(s), int(d)])
        # Staggered releases, including ties and zero.
        rel = [int(t) for t in rng.choice([0, 0, 0, 1, 2, 5], size=m)]
        runs.append((its, rel))
    return machine, policy, runs


class TestBatchEquivalenceProperty:
    @SLOW
    @given(batch_workload())
    def test_route_batch_matches_solo(self, workload):
        machine, policy, runs = workload
        _route_both_ways(machine, policy, runs)


class TestBatchEquivalenceExplicit:
    @pytest.mark.parametrize("family", SMOKE_FAMILIES)
    @pytest.mark.parametrize("policy", SMOKE_POLICIES)
    def test_smoke_fast_subset(self, family, policy):
        """The CI batch-equivalence step: small grid, both policies."""
        machine = family_spec(family).build_with_size(16)
        rng = np.random.default_rng(7)
        n = machine.num_nodes
        runs = []
        for m in (5, 2 * n, n):
            src = rng.integers(0, n, size=m)
            dst = rng.integers(0, n, size=m)
            its = [[int(s), int(d)] for s, d in zip(src, dst)]
            rel = [int(t) for t in rng.choice([0, 0, 1, 3], size=m)]
            runs.append((its, rel))
        _route_both_ways(machine, policy, runs)

    def test_early_finisher(self):
        """One run 10x longer than the others: the short runs' results
        must not shift while the long run keeps the shared loop alive."""
        machine = family_spec("linear_array").build_with_size(32)
        n = machine.num_nodes
        # Short runs: a couple of neighbor hops.  Long run: every node
        # sends to the far end, ~10x the ticks of the short runs.
        short = [[[i, i + 1] for i in range(0, 6)], [[2, 4], [5, 3]]]
        long = [[i, n - 1 - i] for i in range(n)]
        runs = [(its, [0] * len(its)) for its in [short[0], long, short[1]]]
        sim = RoutingSimulator(machine, policy="farthest")
        batch = sim.route_batch([its for its, _ in runs])
        solo = [sim.route(its) for its, _ in runs]
        _assert_runs_equal(batch, solo, "early finisher")
        assert batch[1].total_time >= 10 * batch[0].total_time

    def test_weak_machine_port_limit(self):
        machine = family_spec("linear_array").build_with_size(12)
        machine.port_limit = 1
        rng = np.random.default_rng(3)
        runs = []
        for m in (8, 20):
            src = rng.integers(0, 12, size=m)
            dst = rng.integers(0, 12, size=m)
            runs.append(
                ([[int(s), int(d)] for s, d in zip(src, dst)], [0] * m)
            )
        for policy in SMOKE_POLICIES:
            _route_both_ways(machine, policy, runs)

    def test_reference_engine_batches_sequentially(self):
        machine = family_spec("mesh_2").build_with_size(16)
        runs = [([[0, 5], [3, 9]], [0, 1]), ([[2, 14]], [0])]
        _route_both_ways(machine, "fifo", runs, engine="reference")

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    @pytest.mark.parametrize("policy", SMOKE_POLICIES)
    def test_new_engines_batch_matches_solo(self, engine, policy):
        """route_batch composes with the compiled and auto engines."""
        machine = family_spec("de_bruijn").build_with_size(16)
        rng = np.random.default_rng(13)
        n = machine.num_nodes
        runs = []
        for m in (5, 2 * n, n):
            src = rng.integers(0, n, size=m)
            dst = rng.integers(0, n, size=m)
            its = [[int(s), int(d)] for s, d in zip(src, dst)]
            rel = [int(t) for t in rng.choice([0, 0, 1, 3, 40], size=m)]
            runs.append((its, rel))
        _route_both_ways(machine, policy, runs, engine=engine)

    @pytest.mark.parametrize("engine", BATCH_ENGINES)
    def test_new_engines_batch_matches_fast_batch(self, engine):
        """The batched results themselves are engine-independent."""
        machine = family_spec("mesh_2").build_with_size(16)
        rng = np.random.default_rng(29)
        n = machine.num_nodes
        runs = []
        for m in (n, 3 * n):
            src = rng.integers(0, n, size=m)
            dst = rng.integers(0, n, size=m)
            its = [[int(s), int(d)] for s, d in zip(src, dst)]
            rel = [int(t) for t in rng.choice([0, 0, 2, 90], size=m)]
            runs.append((its, rel))
        args = ([its for its, _ in runs], [rel for _, rel in runs])
        fast = RoutingSimulator(machine, engine="fast").route_batch(*args)
        other = RoutingSimulator(machine, engine=engine).route_batch(*args)
        _assert_runs_equal(other, fast, f"{engine} vs fast batch")

    def test_empty_runs_and_self_messages(self):
        machine = family_spec("mesh_2").build_with_size(16)
        sim = RoutingSimulator(machine)
        batch = sim.route_batch([[], [[3, 3], [4, 4]], [[0, 15]]])
        solo = [
            sim.route([]),
            sim.route([[3, 3], [4, 4]]),
            sim.route([[0, 15]]),
        ]
        _assert_runs_equal(batch, solo, "empty/self")
        assert batch[0].num_packets == 0
        assert batch[1].total_time == 0

    def test_per_run_max_ticks_raises_like_solo(self):
        machine = family_spec("linear_array").build_with_size(32)
        sim = RoutingSimulator(machine)
        its = [[0, 31]]
        with pytest.raises(RuntimeError) as solo_err:
            sim.route(its, max_ticks=3)
        with pytest.raises(RuntimeError) as batch_err:
            sim.route_batch([[[0, 2]], its], max_ticks=[None, 3])
        assert str(batch_err.value) == str(solo_err.value)

    def test_key_overflow_routes_each_run_alone(self, monkeypatch):
        """A batch whose packed queue key outgrows the bit budget routes
        every run as its own one-run batch, still equal to solo route()."""
        machine = family_spec("mesh_2").build_with_size(16)
        rng = np.random.default_rng(17)
        runs = []
        for m in (12, 40, 25, 7):
            pairs = rng.integers(0, 16, size=(m, 2))
            rel = [int(t) for t in rng.choice([0, 0, 2, 6], size=m)]
            runs.append(([[int(s), int(d)] for s, d in pairs], rel))
        sim = RoutingSimulator(machine, policy="farthest", validate=True)

        def solo():
            return [sim.route(its, release_times=rel) for its, rel in runs]

        expected = solo()
        # Shrink the budget to the least every run fits in alone; the
        # K-run batch needs wider edge and sequence fields than that.
        bits = fast_engine.KEY_BITS
        while True:
            monkeypatch.setattr(fast_engine, "KEY_BITS", bits - 1)
            try:
                solo()
            except ValueError:
                break
            bits -= 1
        monkeypatch.setattr(fast_engine, "KEY_BITS", bits)
        sizes = []
        real = fast_engine.route_many

        def spy(machine, tables, runs, *args, **kwargs):
            sizes.append(len(runs))
            return real(machine, tables, runs, *args, **kwargs)

        monkeypatch.setattr(fast_engine, "route_many", spy)
        batch = sim.route_batch(
            [its for its, _ in runs], [rel for _, rel in runs]
        )
        assert sizes == [1] * len(runs)  # one fallback call per run
        _assert_runs_equal(batch, expected, "key overflow")

    def test_oversized_single_run_raises(self, monkeypatch):
        machine = family_spec("mesh_2").build_with_size(16)
        monkeypatch.setattr(fast_engine, "KEY_BITS", 8)
        with pytest.raises(ValueError, match="more than 8"):
            RoutingSimulator(machine, engine="fast").route([[0, 15], [3, 12]])

    def test_input_length_mismatches_rejected(self):
        machine = family_spec("mesh_2").build_with_size(16)
        sim = RoutingSimulator(machine)
        with pytest.raises(ValueError):
            sim.route_batch([[[0, 1]]], release_times_list=[None, None])
        with pytest.raises(ValueError):
            sim.route_batch([[[0, 1]]], max_ticks=[None, 3])


class TestMeasureBandwidthMany:
    @pytest.mark.parametrize("strategy", ["shortest", "valiant"])
    def test_matches_sequential_measurements(self, strategy):
        machine = family_spec("de_bruijn").build_with_size(32)
        seeds = [0, 1, 2, 3]
        many = measure_bandwidth_many(machine, seeds, strategy=strategy)
        solo = [
            measure_bandwidth(machine, seed=s, strategy=strategy)
            for s in seeds
        ]
        assert many == solo

    def test_replicate_batch_path(self):
        machine = family_spec("mesh_2").build_with_size(36)
        batched = Replication(
            values=tuple(
                m.rate for m in measure_bandwidth_many(machine, [11, 12, 13, 14, 15])
            )
        )
        serial = replicate(
            lambda seed: measure_bandwidth(machine, seed=seed).rate,
            num_seeds=5,
            base_seed=11,
        )
        assert batched.values == serial.values
        assert batched.ci95 == serial.ci95
        assert batched.p50 == serial.p50

    def test_cli_replicates_route_each_seed_once(self, tmp_path):
        """``bandwidth --replicates 3`` routes three runs: the measured
        rate it prints is the first replicate's, not a fourth run of the
        base seed."""
        path = tmp_path / "trace.jsonl"
        argv = ["bandwidth", "mesh_2", "--size", "16", "--replicates", "3",
                "--trace", str(path)]
        assert main(argv) == 0
        spans = [e for e in read_events(path) if e["type"] == "span"]
        batches = {e["id"]: e["attrs"]["runs"] for e in spans
                   if e["name"] == "route.batch"}
        solo = [e for e in spans if e["name"].startswith("route.")
                and e["name"] != "route.batch" and e["parent"] not in batches]
        assert sum(batches.values()) + len(solo) == 3
