"""Engine equivalence: every routing engine vs the reference spec.

The fast array engine and the compiled C kernel must reproduce the
reference Python engine *exactly* -- same delivery times, same per-link
traffic counts, same max queue depth, same operational bandwidth -- for
every machine family, both arbitration policies, both port-limit modes,
and any seed.  These tests sweep that grid at small n (every registry
family), probe the itinerary edge cases (waypoints, staggered releases,
self-messages), and fuzz random (family, n, rate, seed) open-loop cells
with Hypothesis.

The compiled engine joins every comparison when its provider is ready;
CI also runs this file with ``REPRO_COMPILED=off``, the no-toolchain
path on which ``auto`` must fall back to ``fast``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tests.hypothesis_profiles import SLOW

from repro.routing import (
    EngineUnavailableError,
    RoutingSimulator,
    dimension_order_route,
    valiant_route,
)
from repro.routing import compiled as compiled_backend
from repro.routing.saturation import saturation_sweep
from repro.topologies import all_family_keys, build_mesh, build_ring, family_spec
from repro.traffic import symmetric_traffic
from repro.workloads import all_reduce_schedule, all_workload_keys, build_workload

POLICIES = ("fifo", "farthest")
PORT_LIMITS = (None, 1)
COMPILED_AVAILABLE = compiled_backend.capability()["available"]
#: The named engines whole-pipeline comparisons run on.
COMPARED = ("fast", "reference") + (("compiled",) if COMPILED_AVAILABLE else ())
#: Every engine the grid sweeps against the reference.  ``auto`` rides
#: along so its per-run resolution is proven harmless everywhere.
ENGINES = ("fast", "auto") + (("compiled",) if COMPILED_AVAILABLE else ())


def _assert_same(ref, got, tag):
    assert ref.total_time == got.total_time, tag
    assert np.array_equal(ref.delivery_times, got.delivery_times), tag
    assert ref.edge_traffic == got.edge_traffic, tag
    assert ref.max_queue == got.max_queue, tag
    assert ref.delivery_rate == got.delivery_rate, tag  # operational beta


def _as_arrays(itineraries, release_times):
    """The same batch as int64 arrays: one ``(m, w)`` array when the
    itineraries are rectangular, else one array per itinerary."""
    try:
        its = np.asarray(itineraries, dtype=np.int64)
    except ValueError:  # ragged
        its = [np.asarray(it, dtype=np.int64) for it in itineraries]
    rel = None if release_times is None else np.asarray(release_times, dtype=np.int64)
    return its, rel


def assert_engines_agree(machine, itineraries, release_times=None, policy="farthest"):
    """Route the same batch on every engine and compare all observables.

    The Python engines also check the per-tick invariants; ``auto`` runs
    unvalidated, so it resolves as a default call does.  Every engine,
    the reference included, also routes the batch as int64 arrays and
    must return what the lists gave."""
    ref = RoutingSimulator(
        machine, policy=policy, engine="reference", validate=True
    ).route(itineraries, release_times=release_times)
    its, rel = _as_arrays(itineraries, release_times)
    for engine in ("reference",) + ENGINES:
        sim = RoutingSimulator(
            machine, policy=policy, engine=engine, validate=engine == "fast"
        )
        if engine != "reference":
            got = sim.route(itineraries, release_times=release_times)
            _assert_same(ref, got, engine)
        got = sim.route(its, release_times=rel)
        _assert_same(ref, got, f"{engine}, int64 arrays")
    return ref


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("port_limit", PORT_LIMITS)
@pytest.mark.parametrize("key", all_family_keys())
def test_every_family_agrees(key, policy, port_limit):
    machine = family_spec(key).build_with_size(16)
    machine.port_limit = port_limit
    n = machine.num_nodes
    msgs = symmetric_traffic(n).sample_messages(4 * n, seed=3)
    assert_engines_agree(machine, [[s, d] for s, d in msgs], policy=policy)


@pytest.mark.parametrize("seed", [0, 1, 7, 42])
@pytest.mark.parametrize("policy", POLICIES)
def test_seed_sweep_on_mesh(policy, seed):
    machine = build_mesh(5, 2)
    msgs = symmetric_traffic(25).sample_messages(150, seed=seed)
    assert_engines_agree(machine, [[s, d] for s, d in msgs], policy=policy)


@pytest.mark.parametrize("policy", POLICIES)
def test_valiant_waypoints_agree(policy):
    machine = family_spec("hypercube").build_with_size(16)
    msgs = symmetric_traffic(16).sample_messages(120, seed=1)
    its = valiant_route(machine, msgs, seed=5)
    assert_engines_agree(machine, its, policy=policy)


def test_dimension_order_paths_agree():
    machine = build_mesh(4, 2)
    msgs = symmetric_traffic(16).sample_messages(96, seed=2)
    assert_engines_agree(machine, dimension_order_route(machine, msgs))


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("port_limit", PORT_LIMITS)
def test_open_loop_releases_agree(policy, port_limit):
    machine = family_spec("mesh_2").build_with_size(16)
    machine.port_limit = port_limit
    rng = np.random.default_rng(11)
    its, rel = [], []
    for _ in range(160):
        s, d = (int(x) for x in rng.integers(0, machine.num_nodes, size=2))
        its.append([s, d])
        rel.append(int(rng.integers(0, 40)))
    assert_engines_agree(machine, its, release_times=rel, policy=policy)


def test_mixed_edge_case_itineraries_agree():
    machine = build_ring(8)
    its = [[0, 4, 0], [2, 2], [1, 3, 3, 3, 5], [5, 5, 5], [7, 0], [0, 7]]
    assert_engines_agree(machine, its)


@pytest.mark.parametrize("engine", COMPARED)
@pytest.mark.parametrize(
    "its, node",
    [([[-3, 2]], -3), ([[0, 3, -2, 5]], -2), ([[0, 8]], 8), ([[0, -1]], -1)],
)
def test_out_of_range_waypoints_rejected(engine, its, node):
    """A waypoint outside [0, n) is refused before any engine runs: the
    C kernel would index out of bounds, and the Python engines would
    index the tables from the end."""
    sim = RoutingSimulator(build_ring(8), engine=engine)
    for form in (its, np.asarray(its, dtype=np.int64)):
        with pytest.raises(ValueError, match=rf"^itinerary node {node} out of range for n=8$"):
            sim.route(form)
        with pytest.raises(ValueError, match="out of range for n=8"):
            sim.route_batch([[[0, 1]], form])


def test_invalid_engine_rejected():
    with pytest.raises(ValueError):
        RoutingSimulator(build_ring(6), engine="warp")


@pytest.mark.parametrize("engine", COMPARED)
def test_derived_max_ticks_fails_fast(engine):
    """The hop-derived default is tight: a run that can finish does, and
    an explicit too-small budget raises the same message everywhere."""
    machine = build_ring(12)
    its = [[0, 6]] * 30  # heavy serialisation still within hops bound
    res = RoutingSimulator(machine, engine=engine).route(its)
    assert res.total_time <= 30 * 6 + 64
    with pytest.raises(RuntimeError, match="did not finish in 2 ticks"):
        RoutingSimulator(machine, engine=engine).route(its, max_ticks=2)


def _open_loop_workload(machine, rate, duration, seed):
    """Bernoulli injection at each (node, tick), saturation-sweep style."""
    n = machine.num_nodes
    rng = np.random.default_rng(seed)
    inject = rng.random((duration, n)) < rate
    ticks, nodes = np.nonzero(inject)
    if len(nodes) == 0:
        return [], []
    dst = rng.integers(0, n, size=len(nodes))
    dst = np.where(dst == nodes, (dst + 1) % n, dst)
    return np.column_stack([nodes, dst]).tolist(), ticks.tolist()


class TestHypothesisEngineCells:
    """Random (family, n, rate, seed) cells: all engines must agree on
    the delivered set, every per-packet arrival tick, and beta."""

    @SLOW
    @given(
        family=st.sampled_from(all_family_keys()),
        size=st.sampled_from([8, 16, 32]),
        rate=st.sampled_from([0.01, 0.05, 0.2, 0.6]),
        seed=st.integers(min_value=0, max_value=10**6),
        policy=st.sampled_from(POLICIES),
    )
    def test_random_open_loop_cells(self, family, size, rate, seed, policy):
        machine = family_spec(family).build_with_size(size)
        its, rel = _open_loop_workload(machine, rate, 64, seed)
        if not its:
            return
        assert_engines_agree(machine, its, release_times=rel, policy=policy)


class TestCompiledFallback:
    def _off(self, monkeypatch):
        monkeypatch.setenv("REPRO_COMPILED", "off")
        compiled_backend._reset_provider_cache()

    @pytest.fixture(autouse=True)
    def _restore_probe_cache(self):
        yield
        compiled_backend._reset_provider_cache()

    def test_engine_compiled_raises_at_construction(self, monkeypatch):
        self._off(monkeypatch)
        with pytest.raises(EngineUnavailableError, match="REPRO_COMPILED=off"):
            RoutingSimulator(build_ring(6), engine="compiled")

    def test_capability_records_the_fallback_reason(self, monkeypatch):
        self._off(monkeypatch)
        cap = compiled_backend.capability()
        assert cap["available"] is False
        assert cap["provider"] is None
        assert "REPRO_COMPILED=off" in cap["reason"]

    def test_auto_degrades_gracefully_without_provider(self, monkeypatch):
        self._off(monkeypatch)
        machine = family_spec("mesh_2").build_with_size(16)
        msgs = symmetric_traffic(16).sample_messages(128, seed=2)
        its = [[s, d] for s, d in msgs]
        auto = RoutingSimulator(machine, engine="auto").route(its)
        ref = RoutingSimulator(machine, engine="reference").route(its)
        _assert_same(ref, auto, "auto-fallback")


class TestWorkloadEquivalence:
    """Every registered workload scenario is bit-identical across engines.

    n=16 is square *and* a power of two, so every structural scenario
    (transpose, bit_reversal) builds; mesh_2 keeps paths long enough to
    force real contention under the adversarial patterns.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("key", all_workload_keys())
    def test_every_workload_agrees(self, key, policy):
        machine = family_spec("mesh_2").build_with_size(16)
        wl = build_workload(key, 16)
        msgs = wl.traffic.sample_messages(64, seed=3)
        assert_engines_agree(machine, [[s, d] for s, d in msgs], policy=policy)

    @pytest.mark.parametrize("key", ("fat_tree", "dragonfly"))
    def test_new_fabrics_under_adversarial_traffic(self, key):
        machine = family_spec(key).build_with_size(36)
        n = machine.num_nodes
        wl = build_workload("hotspot", n, hot_fraction=0.9)
        msgs = wl.traffic.sample_messages(4 * n, seed=1)
        assert_engines_agree(machine, [[s, d] for s, d in msgs])

    @pytest.mark.parametrize("kind", ("ring", "tree"))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_collective_schedules_agree(self, kind, policy):
        """The full phased all-reduce schedule, released phase by phase
        (the open-loop shape all_reduce_time routes)."""
        machine = family_spec("mesh_2").build_with_size(16)
        its, rel = [], []
        for phase, pairs in enumerate(all_reduce_schedule(16, kind)):
            its.extend([s, d] for s, d in pairs)
            rel.extend([phase] * len(pairs))
        assert_engines_agree(machine, its, release_times=rel, policy=policy)

    def test_bursty_saturation_identical_across_engines(self):
        """The gated open-loop path (workload threading inside
        saturation_sweep itself) must not depend on the engine."""
        machine = family_spec("mesh_2").build_with_size(16)
        runs = [
            saturation_sweep(
                machine, rates=[0.4, 0.9], duration=64, seed=2,
                engine=engine, workload="bursty",
                workload_params={"on": 8, "off": 8},
            )
            for engine in COMPARED
        ]
        assert all(run == runs[0] for run in runs)


class TestAutoHeuristic:
    def test_dense_run_resolves_to_a_dense_engine(self):
        machine = family_spec("mesh_2").build_with_size(16)
        sim = RoutingSimulator(machine, engine="auto")
        assert sim._resolve_engine() in ("fast", "compiled")

    @pytest.mark.skipif(not COMPILED_AVAILABLE, reason="no compiled provider")
    def test_auto_resolves_to_compiled_when_a_provider_is_ready(self):
        machine = family_spec("mesh_2").build_with_size(16)
        sim = RoutingSimulator(machine, engine="auto")
        assert sim._resolve_engine() == "compiled"

    def test_non_auto_engines_resolve_to_themselves(self):
        machine = build_ring(8)
        for engine in COMPARED:
            sim = RoutingSimulator(machine, engine=engine)
            assert sim._resolve_engine() == engine
