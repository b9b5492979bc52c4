"""The workload registry: scenarios, collectives, and determinism.

Covers the registry contract (keys, param validation, clean unknown-key
failures), the scenario generators (scale-free weights, the bursty
on-off gate), the all-reduce schedules, the end-to-end threading through
``measure_bandwidth``/``saturation_sweep``/harness jobs, and the
executor-determinism guarantee: the same (workload, seed) job computes
bit-identical values on the serial, parallel, and fabric executors.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fabric import FabricExecutor
from repro.harness import (
    Job,
    ParallelExecutor,
    SerialExecutor,
    run_sweep,
)
from repro.routing import compiled as compiled_backend
from repro.routing import measure_bandwidth, saturation_sweep
from repro.topologies import family_spec
from repro.traffic import symmetric_traffic
from repro.workloads import (
    WORKLOADS,
    all_reduce_schedule,
    all_reduce_time,
    all_workload_keys,
    build_workload,
    gate_mask,
    scale_free_traffic,
    workload_spec,
)

COMPILED_AVAILABLE = compiled_backend.capability()["available"]


class TestRegistry:
    def test_all_keys_build_at_16(self):
        # n=16 is square and a power of two, so every scenario builds.
        for key in all_workload_keys():
            wl = build_workload(key, 16)
            assert wl.key == key
            assert wl.traffic.n == 16
            assert wl.traffic.support_size > 0

    def test_expected_scenarios_registered(self):
        assert {
            "symmetric", "quasi_symmetric", "hotspot", "bursty",
            "scale_free", "permutation", "transpose", "bit_reversal",
            "all_reduce_ring", "all_reduce_tree",
        } <= set(WORKLOADS)

    def test_unknown_key_mirrors_family_spec_error(self):
        with pytest.raises(KeyError, match="unknown workload 'nope'"):
            workload_spec("nope")

    def test_unknown_param_rejected_with_accepted_list(self):
        with pytest.raises(ValueError, match="accepted: \\['hot', 'hot_fraction'\\]"):
            build_workload("hotspot", 16, heat=9000)

    def test_param_bounds_enforced(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            build_workload("bursty", 16, on=0)
        with pytest.raises(ValueError, match="must be <= 8.0"):
            build_workload("scale_free", 16, alpha=9.5)

    def test_param_type_enforced(self):
        with pytest.raises(ValueError, match="must be an int"):
            build_workload("bursty", 16, on=2.5)

    def test_defaults_applied(self):
        wl = build_workload("hotspot", 16)
        assert wl.params == {"hot": 0, "hot_fraction": 0.5}

    def test_quasi_symmetric_flag_matches_distribution(self):
        # The registry's classification must agree with the paper's
        # operational definition on the distributions themselves.
        for key in ("symmetric", "quasi_symmetric"):
            wl = build_workload(key, 16)
            assert wl.quasi_symmetric
            assert wl.traffic.is_quasi_symmetric()
        for key in ("hotspot", "scale_free"):
            wl = build_workload(key, 16)
            assert not wl.quasi_symmetric
            assert not wl.traffic.is_quasi_symmetric()

    def test_structural_requirements_surface_as_value_errors(self):
        with pytest.raises(ValueError, match="square"):
            build_workload("transpose", 15)
        with pytest.raises(ValueError, match="power-of-two"):
            build_workload("bit_reversal", 15)

    def test_only_bursty_has_a_gate(self):
        for key in all_workload_keys():
            wl = build_workload(key, 16)
            if key == "bursty":
                assert wl.gate == (16, 16)
            else:
                assert wl.gate is None


class TestGenerators:
    def test_gate_mask_period(self):
        mask = gate_mask(10, on=2, off=3)
        assert mask.tolist() == [
            True, True, False, False, False, True, True, False, False, False
        ]

    def test_scale_free_alpha_zero_is_symmetric(self):
        sf = scale_free_traffic(12, alpha=0.0)
        sym = symmetric_traffic(12)
        assert sf.pairs.keys() == sym.pairs.keys()
        assert set(sf.pairs.values()) == {1.0}

    def test_scale_free_hub_heavy(self):
        sf = scale_free_traffic(12, alpha=1.5)
        # hub-to-hub pair outweighs tail-to-tail by (11*12/(1*2))^1.5
        assert sf.pairs[(0, 1)] > 100 * sf.pairs[(10, 11)]


class TestCollectives:
    def test_ring_schedule_shape(self):
        n = 8
        schedule = all_reduce_schedule(n, "ring")
        assert len(schedule) == 2 * (n - 1)
        for phase in schedule:
            assert phase == [(i, (i + 1) % n) for i in range(n)]

    def test_tree_schedule_covers_every_edge_both_ways(self):
        n = 15
        schedule = all_reduce_schedule(n, "tree")
        up = {(i, (i - 1) // 2) for i in range(1, n)}
        down = {(p, c) for c, p in up}
        seen = {pair for phase in schedule for pair in phase}
        assert seen == up | down
        # reduce phases strictly precede broadcast phases
        half = len(schedule) // 2
        assert {p for ph in schedule[:half] for p in ph} == up

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown all-reduce kind"):
            all_reduce_schedule(8, "butterfly")

    @pytest.mark.parametrize("kind", ["ring", "tree"])
    def test_all_reduce_time_engine_independent(self, kind):
        machine = family_spec("fat_tree").build_with_size(36)
        ref = all_reduce_time(machine, kind, engine="reference")
        for engine in ("fast",) + (("compiled",) if COMPILED_AVAILABLE else ()):
            got = all_reduce_time(machine, kind, engine=engine)
            assert got == ref

    def test_all_reduce_time_job(self):
        out = Job("all_reduce_time", {"family": "dragonfly", "size": 30}).run()
        assert out["kind"] == "ring"
        assert out["num_phases"] == 2 * (out["n"] - 1)
        assert out["total_time"] > 0


class TestMeasurementThreading:
    def test_symmetric_workload_matches_default_bitwise(self):
        machine = family_spec("mesh_2").build_with_size(16)
        base = measure_bandwidth(machine, seed=7)
        via = measure_bandwidth(machine, seed=7, workload="symmetric")
        assert (base.rate, base.total_time) == (via.rate, via.total_time)

    def test_traffic_and_workload_mutually_exclusive(self):
        machine = family_spec("mesh_2").build_with_size(16)
        with pytest.raises(ValueError, match="not both"):
            measure_bandwidth(
                machine, traffic=symmetric_traffic(16), workload="hotspot"
            )

    def test_workload_params_without_key_rejected(self):
        machine = family_spec("mesh_2").build_with_size(16)
        with pytest.raises(ValueError, match="without a workload key"):
            measure_bandwidth(machine, workload_params={"hot": 1})

    def test_saturation_symmetric_workload_matches_default_bitwise(self):
        machine = family_spec("mesh_2").build_with_size(16)
        base = saturation_sweep(machine, rates=[0.2, 0.6], duration=64, seed=5)
        via = saturation_sweep(
            machine, rates=[0.2, 0.6], duration=64, seed=5,
            workload="symmetric",
        )
        assert base == via

    def test_bursty_gate_caps_injection_window(self):
        machine = family_spec("mesh_2").build_with_size(16)
        gated = saturation_sweep(
            machine, rates=[1.0], duration=64, seed=5,
            workload="bursty", workload_params={"on": 4, "off": 60},
        )
        open_ = saturation_sweep(machine, rates=[1.0], duration=64, seed=5)
        # rate 1.0 injects every open tick: 4 gated vs 64 ungated windows.
        assert gated[0].delivered_rate < open_[0].delivered_rate

    def test_workload_key_changes_job_hash_only_when_present(self):
        plain = Job("measure_bandwidth", {"family": "mesh_2", "size": 16})
        tagged = Job(
            "measure_bandwidth",
            {"family": "mesh_2", "size": 16, "workload": "hotspot"},
        )
        assert plain.job_hash != tagged.job_hash
        assert "workload" not in plain.spec

    def test_job_outputs_echo_workload(self):
        spec = {"family": "mesh_2", "size": 16, "workload": "scale_free"}
        out = Job("measure_bandwidth", spec).run()
        assert out["workload"] == "scale_free"
        assert out["traffic"] == "scale_free(1.0)"
        plain = Job("measure_bandwidth", {"family": "mesh_2", "size": 16}).run()
        assert "workload" not in plain


class TestCatalogWorkloadDimension:
    def test_quasi_symmetric_cell_unchanged(self):
        base = Job("catalog_cell", {"guest": "mesh_2", "host": "tree"}).run()
        qs = Job(
            "catalog_cell",
            {"guest": "mesh_2", "host": "tree", "workload": "quasi_symmetric"},
        ).run()
        assert qs["bound"] == base["bound"]
        assert qs["workload_class"] == "quasi_symmetric"

    def test_non_quasi_symmetric_cell_relaxes_to_trivial_cap(self):
        base = Job("catalog_cell", {"guest": "hypercube", "host": "mesh_2"}).run()
        hot = Job(
            "catalog_cell",
            {"guest": "hypercube", "host": "mesh_2", "workload": "hotspot"},
        ).run()
        assert base["expr"] != "n"  # the symmetric cell genuinely binds
        assert hot["expr"] == "n"
        assert hot["workload_class"] == "non_quasi_symmetric"

    def test_workload_free_cell_payload_unchanged(self):
        out = Job("catalog_cell", {"guest": "mesh_2", "host": "tree"}).run()
        assert set(out) == {"guest", "host", "expr", "bound", "kind"}


WORKLOAD_DETERMINISM_JOBS = [
    Job(
        "measure_bandwidth",
        {"family": "mesh_2", "size": 16, "seed": s, "workload": w},
    )
    for w in ("hotspot", "scale_free", "all_reduce_ring")
    for s in (0, 1)
] + [
    Job(
        "saturation_sweep",
        {
            "family": "fat_tree", "size": 36, "seed": 3, "duration": 32,
            "rates": [0.3], "workload": "bursty",
        },
    ),
    Job("all_reduce_time", {"family": "dragonfly", "size": 30, "kind": "tree"}),
]


class TestExecutorDeterminism:
    """Same (workload, seed) -> identical values on every executor."""

    def test_serial_parallel_fabric_identical(self):
        serial = run_sweep(WORKLOAD_DETERMINISM_JOBS, executor=SerialExecutor())
        assert serial.ok
        parallel = run_sweep(
            WORKLOAD_DETERMINISM_JOBS,
            executor=ParallelExecutor(max_workers=4),
        )
        fabric = run_sweep(
            WORKLOAD_DETERMINISM_JOBS,
            executor=FabricExecutor(num_workers=2),
        )
        assert parallel.values == serial.values
        assert fabric.values == serial.values

    def test_same_spec_same_sampled_sequence(self):
        # The sampled message sequence itself (not just aggregates) is a
        # pure function of (workload, seed).
        wl = build_workload("hotspot", 16, hot_fraction=0.7)
        a = wl.traffic.sample_messages(64, seed=9)
        b = build_workload("hotspot", 16, hot_fraction=0.7).traffic
        assert a == b.sample_messages(64, seed=9)
        assert a != wl.traffic.sample_messages(64, seed=10)


class TestServiceWorkloadSurface:
    def test_workloads_endpoint_lists_registry(self):
        from repro.service.app import QueryService

        status, payload = QueryService().handle("GET", "/v1/workloads")
        assert status == 200
        assert payload["count"] == len(WORKLOADS)
        keys = [w["key"] for w in payload["workloads"]]
        assert keys == all_workload_keys()

    def test_bandwidth_rejects_unknown_workload_as_404(self):
        from repro.service.app import QueryService

        status, payload = QueryService().handle(
            "GET", "/v1/bandwidth", {"family": "mesh_2", "workload": "nope"}
        )
        assert status == 404
        assert payload["error"]["code"] == "unknown_workload"

    def test_catalog_accepts_workload_for_new_fabrics(self):
        from repro.service.app import QueryService

        status, payload = QueryService().handle(
            "GET",
            "/v1/catalog",
            {
                "guests": "hypercube",
                "hosts": "fat_tree,dragonfly",
                "workload": "all_reduce_ring",
            },
        )
        assert status == 200
        assert payload["workload"] == "all_reduce_ring"
        assert [c["host"] for c in payload["cells"]] == ["fat_tree", "dragonfly"]
        assert all(c["workload_class"] == "non_quasi_symmetric"
                   for c in payload["cells"])

    def test_saturation_accepts_workload(self):
        from repro.service.app import QueryService

        status, payload = QueryService().handle(
            "POST",
            "/v1/saturation",
            body=(
                b'{"family": "dragonfly", "size": 30, "workload": "hotspot",'
                b' "rates": [0.2], "duration": 32}'
            ),
        )
        assert status == 200
        assert payload["result"]["workload"] == "hotspot"
        assert len(payload["result"]["points"]) == 1


class TestWorkloadRepr:
    def test_repr_is_stable_and_informative(self):
        wl = build_workload("bursty", 16, on=4, off=2)
        assert repr(wl) == "Workload(bursty(off=2, on=4), n=16)"


def test_numpy_gate_dtype_is_bool():
    assert gate_mask(8, 3, 1).dtype == np.bool_
