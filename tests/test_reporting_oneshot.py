"""Tests for the reproduce-all pipeline, one-shot recomputation, and the
betweenness congestion estimator."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.bandwidth import (
    beta_bracket,
    betweenness_beta_estimate,
    betweenness_congestion,
    lp_min_congestion,
    routing_congestion,
)
from repro.emulation import CellularGuest, GhostZoneEmulator, oneshot_recompute
from repro.reporting import EXPERIMENTS, reproduce_all
from repro.topologies import build_de_bruijn, build_linear_array, build_mesh, build_tree


class TestOneshotRecompute:
    def test_bit_exact_no_communication(self):
        g = CellularGuest(48, ring=True)
        s0 = g.initial_state(seed=9)
        final, rep = oneshot_recompute(g, 8, s0.copy(), 4)
        assert np.array_equal(final, g.run(s0.copy(), 4))
        assert rep.comm_ticks == 0

    def test_path_guest_also_works(self):
        g = CellularGuest(40, ring=False)
        s0 = g.initial_state(seed=2)
        final, rep = oneshot_recompute(g, 5, s0.copy(), 3)
        assert np.array_equal(final, g.run(s0.copy(), 3))

    def test_efficient_for_short_computations(self):
        """steps << b: slowdown stays near the load bound with no
        communication at all -- the loophole Theorem 1's guest-time
        precondition closes."""
        g = CellularGuest(256, ring=True)
        s0 = g.initial_state()
        _, rep = oneshot_recompute(g, 8, s0, 4)  # b = 32, t = 4
        assert rep.comm_ticks == 0
        assert rep.slowdown <= rep.load_bound + 2 * 4 + 1

    def test_beats_communicating_emulation_for_short_runs(self):
        """For t < lambda-ish runs with high message overhead, silence wins."""
        g = CellularGuest(256, ring=True)
        s0 = g.initial_state()
        _, silent = oneshot_recompute(g, 8, s0.copy(), 4)
        _, chatty = GhostZoneEmulator(g, 8, halo_width=1, alpha=64).run(
            s0.copy(), 4
        )
        assert silent.slowdown < chatty.slowdown

    def test_steps_capped_by_block(self):
        g = CellularGuest(32, ring=True)
        with pytest.raises(ValueError):
            oneshot_recompute(g, 8, g.initial_state(), 5)  # b = 4 < 5

    def test_blocks_must_divide(self):
        g = CellularGuest(10, ring=True)
        with pytest.raises(ValueError):
            oneshot_recompute(g, 3, g.initial_state(), 2)


class TestBetweenness:
    def test_linear_array_exact(self):
        """Unique shortest paths: betweenness == optimal congestion."""
        m = build_linear_array(12)
        assert betweenness_congestion(m) == pytest.approx(36.0)

    def test_between_lp_and_routed(self):
        """Fractional even-split sits between LP optimum and the
        deterministic single-path routing."""
        for build in (lambda: build_mesh(4, 2), lambda: build_de_bruijn(4)):
            m = build()
            lp = lp_min_congestion(m)
            bc = betweenness_congestion(m)
            routed = routing_congestion(m)
            assert lp - 1e-6 <= bc <= routed + 1e-6, (m.name, lp, bc, routed)

    def test_beta_estimate_within_bracket_scale(self):
        m = build_tree(4)
        est = betweenness_beta_estimate(m)
        br = beta_bracket(m)
        assert br.lower / 2 <= est <= br.upper * 2


class TestReproduceAll:
    def test_quick_run_writes_artifacts(self, tmp_path):
        summary = reproduce_all(tmp_path, quick=True, only=["table3", "figure1"])
        assert set(summary["experiments"]) == {"table3", "figure1"}
        data = json.loads((tmp_path / "figure1.json").read_text())
        assert data["data"]["crossover_symbolic"] == "lg(n)^2"
        assert (tmp_path / "summary.json").exists()

    def test_table_artifacts_match_solver(self, tmp_path):
        reproduce_all(tmp_path, quick=True, only=["table1"])
        data = json.loads((tmp_path / "table1.json").read_text())
        assert data["data"]["mesh_2"]["linear_array"] == "n^(1/2)"
        assert data["data"]["mesh_2"]["xtree"] == "n^(1/2) lg(n)"

    def test_unknown_experiment_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            reproduce_all(tmp_path, only=["tableX"])

    def test_registry_complete(self):
        assert set(EXPERIMENTS) >= {
            "table1", "table2", "table3", "table4",
            "figure1", "figure2", "redundancy", "saturation",
            "expander_gap", "catalog",
        }

    def test_catalog_artifact_has_no_violations(self, tmp_path):
        reproduce_all(tmp_path, quick=True, only=["catalog"])
        data = json.loads((tmp_path / "catalog.json").read_text())
        assert data["data"]["violations"] == []
