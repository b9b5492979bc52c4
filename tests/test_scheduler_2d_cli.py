"""Tests for circuit scheduling, 2-D ghost zones, locality traffic, CLI."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.emulation import (
    CellularGuest2D,
    GhostZoneEmulator2D,
    balanced_assignment,
    build_nonredundant_circuit,
    build_redundant_circuit,
    schedule_circuit,
)
from repro.routing import measure_bandwidth
from repro.topologies import build_linear_array, build_mesh, build_ring
from repro.traffic import local_traffic


class TestScheduler:
    def test_schedule_shape(self):
        c = build_nonredundant_circuit(build_ring(12), 4)
        host = build_linear_array(4)
        sched = schedule_circuit(c, host, balanced_assignment(c, 4))
        assert len(sched.level_compute) == 4
        assert sched.depth == 4
        assert sched.host_time == sum(sched.level_compute) + sum(sched.level_comm)

    def test_redundancy_multiplies_compute(self):
        g = build_ring(12)
        host = build_linear_array(4)
        c1 = build_nonredundant_circuit(g, 3)
        c2 = build_redundant_circuit(g, 3, duplicity=3)
        s1 = schedule_circuit(c1, host, balanced_assignment(c1, 4))
        s2 = schedule_circuit(c2, host, balanced_assignment(c2, 4))
        assert sum(s2.level_compute) == 3 * sum(s1.level_compute)

    def test_single_processor_no_comm(self):
        c = build_nonredundant_circuit(build_ring(8), 3)
        host = build_linear_array(2)
        sched = schedule_circuit(c, host, {n: 0 for n in c.nodes()})
        assert sum(sched.level_comm) == 0
        assert sched.compute_fraction == 1.0

    def test_invalid_assignment_target(self):
        c = build_nonredundant_circuit(build_ring(8), 2)
        host = build_linear_array(2)
        with pytest.raises(ValueError):
            schedule_circuit(c, host, {n: 5 for n in c.nodes()})

    def test_empty_assignment(self):
        c = build_nonredundant_circuit(build_ring(8), 2)
        with pytest.raises(ValueError):
            schedule_circuit(c, build_linear_array(2), {})

    def test_slowdown_at_least_load(self):
        g = build_ring(16)
        c = build_nonredundant_circuit(g, 4)
        host = build_linear_array(4)
        sched = schedule_circuit(c, host, balanced_assignment(c, 4))
        assert sched.slowdown >= g.num_nodes / host.num_nodes

    def test_str(self):
        c = build_nonredundant_circuit(build_ring(8), 2)
        sched = schedule_circuit(
            c, build_linear_array(2), balanced_assignment(c, 2)
        )
        assert "schedule" in str(sched)


class TestGhostZone2D:
    def test_bit_exact(self):
        g = CellularGuest2D(12)
        s0 = g.initial_state(seed=4)
        direct = g.run(s0.copy(), 4)
        emu, _ = GhostZoneEmulator2D(g, 3, halo_width=2).run(s0.copy(), 4)
        assert np.array_equal(direct, emu)

    @given(
        st.integers(min_value=2, max_value=4),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=15, deadline=None)
    def test_bit_exact_property(self, mb, w, seed):
        b = max(w, 3)
        g = CellularGuest2D(mb * b)
        s0 = g.initial_state(seed=seed)
        direct = g.run(s0.copy(), 2 * w)
        emu, _ = GhostZoneEmulator2D(g, mb, halo_width=w).run(s0.copy(), 2 * w)
        assert np.array_equal(direct, emu)

    def test_surface_to_volume_redundancy(self):
        """Redundant updates per superstep are O(b * w^2), not O(b^2)."""
        g = CellularGuest2D(32)
        _, rep = GhostZoneEmulator2D(g, 4, halo_width=2).run(
            g.initial_state(), 4
        )
        assert rep.inefficiency <= 1.8

    def test_latency_amortised(self):
        g = CellularGuest2D(32)
        s0 = g.initial_state()
        slow = {}
        for w in (1, 4):
            _, rep = GhostZoneEmulator2D(g, 4, halo_width=w, alpha=200).run(
                s0.copy(), 4 * w
            )
            slow[w] = rep.slowdown
        assert slow[4] < slow[1]

    def test_validation(self):
        g = CellularGuest2D(12)
        with pytest.raises(ValueError):
            GhostZoneEmulator2D(g, 5)  # 12 % 5 != 0
        with pytest.raises(ValueError):
            GhostZoneEmulator2D(g, 4, halo_width=4)  # w > b = 3
        em = GhostZoneEmulator2D(g, 3, halo_width=2)
        with pytest.raises(ValueError):
            em.run(g.initial_state(), 3)  # not multiple of w
        with pytest.raises(ValueError):
            em.run(np.zeros((5, 5)), 2)

    def test_report_properties(self):
        g = CellularGuest2D(12)
        _, rep = GhostZoneEmulator2D(g, 3, halo_width=1).run(g.initial_state(), 2)
        assert rep.guest_size == 144
        assert rep.num_blocks == 9
        assert rep.load_bound == 16.0
        assert "2d ghost-zone" in str(rep)


class TestLocalTraffic:
    def test_weights_decay_with_distance(self):
        m = build_linear_array(8)
        t = local_traffic(m, decay=0.5)
        assert t.pairs[(0, 1)] == pytest.approx(0.5)
        assert t.pairs[(0, 4)] == pytest.approx(0.5**4)

    def test_decay_one_is_symmetric(self):
        m = build_ring(6)
        t = local_traffic(m, decay=1.0)
        assert t.support_size == 30
        assert len({round(w, 9) for w in t.pairs.values()}) == 1

    def test_cutoff_truncates(self):
        m = build_linear_array(8)
        t = local_traffic(m, decay=0.5, cutoff=2)
        assert (0, 2) in t.pairs and (0, 3) not in t.pairs

    def test_locality_raises_rate(self):
        """Local traffic flows faster than symmetric on a mesh."""
        m = build_mesh(8, 2)
        local = measure_bandwidth(m, traffic=local_traffic(m, 0.3), seed=0)
        sym = measure_bandwidth(m, seed=0)
        assert local.rate > 1.5 * sym.rate

    def test_invalid_decay(self):
        m = build_ring(6)
        with pytest.raises(ValueError):
            local_traffic(m, decay=0)
        with pytest.raises(ValueError):
            local_traffic(m, decay=1.5)


class TestCli:
    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "de_bruijn" in out and "Theta" in out

    def test_tables(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "Table 4" in out
        assert "O(lg(|G|)^2)" in out

    def test_figure1(self, capsys):
        assert main(["figure1", "--n", "4096"]) == 0
        out = capsys.readouterr().out
        assert "crossover" in out

    def test_bandwidth(self, capsys):
        assert main(["bandwidth", "mesh_2", "--size", "64"]) == 0
        out = capsys.readouterr().out
        assert "certified bracket" in out

    def test_emulate(self, capsys):
        assert (
            main(
                [
                    "emulate", "de_bruijn", "mesh_2",
                    "--guest-size", "64", "--host-size", "16", "--steps", "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "inefficiency" in out

    def test_catalog_custom_families(self, capsys):
        assert main(["catalog", "mesh_2", "de_bruijn"]) == 0
        out = capsys.readouterr().out
        assert "lg(n)^2" in out

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_import_skips_the_http_stack(self):
        """The CLI takes its schemas from repro.operations, outside the
        service package, so no cold command pays for the HTTP server."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        probe = (
            "import sys, repro.cli; print([m for m in "
            "('http.server', 'repro.service.app') if m in sys.modules])"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env=dict(os.environ, PYTHONPATH=src),
        ).stdout
        assert out.strip() == "[]"
