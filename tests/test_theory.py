"""Tests for the theory layer: Theorem 1, host sizes, tables, Figure 1,
bottleneck-freeness, lambda."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.asymptotics import LogPoly
from repro.theory import (
    bottleneck_freeness,
    figure1_data,
    generate_table,
    generate_table1,
    generate_table2,
    generate_table3,
    generate_table4,
    lam_formula,
    lam_numeric,
    lemma8_time_lower,
    lemma9_depth_condition,
    max_host_size,
    numeric_slowdown_bound,
    symbolic_slowdown,
    theorem_guest_time,
)
from repro.topologies import build_de_bruijn, build_linear_array, build_mesh, build_tree
from repro.traffic import TrafficMultigraph

N = LogPoly.n()
LG = LogPoly.log()
LGLG = LogPoly.log(level=2)


class TestSymbolicSlowdown:
    def test_debruijn_on_mesh(self):
        """The paper's intro example: S_c >= Omega(n / (sqrt(m) lg n))."""
        b = symbolic_slowdown("de_bruijn", "mesh_2")
        assert b.beta_guest == N / LG
        assert b.beta_host == LogPoly.n(Fraction(1, 2))

    def test_evaluate(self):
        b = symbolic_slowdown("de_bruijn", "mesh_2")
        # n=2^14, m=196=lg^2 n: bound = (16384/14)/14 = 83.6
        assert b.evaluate(2**14, 196) == pytest.approx(16384 / 14 / 14, rel=0.01)

    def test_specialise_at_crossover(self):
        """At m = lg^2 n the bound becomes n/(lg^2 n) = load bound."""
        b = symbolic_slowdown("de_bruijn", "mesh_2")
        s = b.specialise(LG**2)
        assert s == N / LG**2

    def test_same_family_constant(self):
        b = symbolic_slowdown("mesh_2", "mesh_2")
        assert b.beta_guest == b.beta_host

    def test_str(self):
        s = str(symbolic_slowdown("de_bruijn", "mesh_2"))
        assert "S_c" in s and "m" in s


class TestNumericSlowdown:
    def test_lower_bound_holds_conservatively(self):
        g = build_de_bruijn(6)
        h = build_linear_array(16)
        bound = numeric_slowdown_bound(g, h)
        # de Bruijn(64)/array(16): formula ratio ~ (64/6)/1 = 10.7.
        assert 1 <= bound <= 64

    def test_self_bound_at_most_one_ish(self):
        m = build_mesh(6, 2)
        assert numeric_slowdown_bound(m, m) <= 1.0

    @pytest.mark.parametrize("caller", ["numeric_slowdown_bound", "Emulator.run"])
    def test_computes_only_the_bracket_halves_it_reads(self, monkeypatch, caller):
        """The bound reads the guest's lower beta and the host's upper
        beta, so it routes the guest once and cuts the host once."""
        from repro.bandwidth import graph_theoretic
        from repro.emulation import Emulator

        calls = []
        for name in ("routing_congestion", "congestion_lower_bound"):
            real = getattr(graph_theoretic, name)

            def counted(machine, *args, _name=name, _real=real, **kwargs):
                calls.append((_name, machine.name))
                return _real(machine, *args, **kwargs)

            monkeypatch.setattr(graph_theoretic, name, counted)
        guest, host = build_de_bruijn(6), build_linear_array(16)
        if caller == "Emulator.run":
            Emulator(guest, host).run(1)
        else:
            numeric_slowdown_bound(guest, host)
        assert sorted(calls) == [
            ("congestion_lower_bound", host.name),
            ("routing_congestion", guest.name),
        ]


class TestLemma8:
    def test_time_lower_bound(self):
        host = build_linear_array(8)
        pattern = TrafficMultigraph(8, {(0, 7): 50})
        t = lemma8_time_lower(pattern, host)
        assert t >= 10  # 50 messages, beta(array) = Theta(1)

    def test_simulator_respects_bound(self):
        """Actually routing the pattern takes at least the Lemma-8 time."""
        from repro.routing import RoutingSimulator

        host = build_linear_array(8)
        pattern = TrafficMultigraph(8, {(0, 7): 30, (1, 6): 20})
        t_bound = lemma8_time_lower(pattern, host)
        its = []
        for (u, v), w in pattern.weights.items():
            its += [[u, v]] * w
        t_real = RoutingSimulator(host).route(its).total_time
        assert t_real >= t_bound

    def test_pattern_too_large(self):
        with pytest.raises(ValueError):
            lemma8_time_lower(TrafficMultigraph(20, {(0, 1): 1}), build_linear_array(8))


class TestMaxHostSize:
    def test_paper_intro_example(self):
        """de Bruijn on 2-d mesh: |H| = O(lg^2 n)."""
        assert max_host_size("de_bruijn", "mesh_2").expr == LG**2

    def test_debruijn_on_array(self):
        assert max_host_size("de_bruijn", "linear_array").expr == LG

    def test_debruijn_on_xtree(self):
        assert max_host_size("de_bruijn", "xtree").expr == LG * LGLG

    def test_debruijn_on_mesh3(self):
        assert max_host_size("de_bruijn", "mesh_3").expr == LG**3

    def test_mesh_guest_on_array(self):
        assert max_host_size("mesh_2", "linear_array").expr == LogPoly.n(
            Fraction(1, 2)
        )

    def test_mesh_guest_on_xtree(self):
        assert max_host_size("mesh_2", "xtree").expr == LogPoly.n(
            Fraction(1, 2)
        ) * LG

    def test_mesh3_guest_on_mesh2(self):
        assert max_host_size("mesh_3", "mesh_2").expr == LogPoly.n(
            Fraction(2, 3)
        )

    def test_equal_power_full_size(self):
        assert max_host_size("mesh_2", "mesh_2").expr == N
        assert max_host_size("de_bruijn", "butterfly").expr == N

    def test_more_powerful_host_capped_at_n(self):
        assert max_host_size("mesh_2", "mesh_3").expr == N
        assert max_host_size("de_bruijn", "hypercube").expr == N
        assert max_host_size("mesh_2", "de_bruijn").expr == N

    def test_xtree_guest_on_tree(self):
        # lg(m)... host tree: 1/m = lg n / n -> m = n/lg n.
        assert max_host_size("xtree", "tree").expr == N / LG

    def test_hierarchical_guests_match_mesh_guests(self):
        """MoT/multigrid/pyramid guests have mesh-guest host bounds."""
        for fam in ("mesh_of_trees", "multigrid", "pyramid"):
            for host in ("linear_array", "xtree", "mesh_1"):
                assert (
                    max_host_size(f"{fam}_2", host).expr
                    == max_host_size("mesh_2", host).expr
                )

    def test_butterfly_class_all_equal(self):
        keys = (
            "butterfly",
            "ccc",
            "shuffle_exchange",
            "de_bruijn",
            "multibutterfly",
            "expander",
            "weak_hypercube",
        )
        for k in keys:
            assert max_host_size(k, "mesh_2").expr == LG**2


class TestGuestTimePreconditions:
    def test_xtree_logarithmic(self):
        assert theorem_guest_time("xtree").expr == LG

    def test_mesh_polynomial(self):
        assert theorem_guest_time("mesh_3").expr == LogPoly.n(Fraction(1, 3))

    def test_butterfly_class_logarithmic(self):
        assert theorem_guest_time("de_bruijn").expr == LG


class TestTables:
    def test_table1_mesh2_cells(self):
        rows = {r.host_key: r.bound.expr for r in generate_table1(j=2)}
        half = LogPoly.n(Fraction(1, 2))
        assert rows["linear_array"] == half
        assert rows["tree"] == half
        assert rows["global_bus"] == half
        assert rows["weak_ppn"] == half
        assert rows["xtree"] == half * LG
        assert rows["mesh_1"] == half
        assert rows["mesh_2"] == N
        assert rows["mesh_of_trees_1"] == half

    def test_table1_j3(self):
        rows = {r.host_key: r.bound.expr for r in generate_table1(j=3)}
        third = LogPoly.n(Fraction(1, 3))
        assert rows["linear_array"] == third
        assert rows["mesh_2"] == LogPoly.n(Fraction(2, 3))
        assert rows["xtree"] == third * LG

    def test_table1_torus_same_as_mesh(self):
        a = {r.host_key: r.bound.expr for r in generate_table1(j=2, guest="mesh")}
        b = {r.host_key: r.bound.expr for r in generate_table1(j=2, guest="torus")}
        assert a == b

    def test_table1_invalid_guest(self):
        with pytest.raises(ValueError):
            generate_table1(guest="de_bruijn")

    def test_table2_includes_xgrid_hosts(self):
        keys = {r.host_key for r in generate_table2(j=2)}
        assert "xgrid_2" in keys

    def test_table2_cells_match_table1(self):
        t1 = {r.host_key: r.bound.expr for r in generate_table1(j=2)}
        t2 = {r.host_key: r.bound.expr for r in generate_table2(j=2)}
        for k, v in t1.items():
            assert t2[k] == v

    def test_table3_debruijn_cells(self):
        rows = {r.host_key: r.bound.expr for r in generate_table3("de_bruijn")}
        assert rows["linear_array"] == LG
        assert rows["tree"] == LG
        assert rows["xtree"] == LG * LGLG
        assert rows["mesh_2"] == LG**2
        assert rows["mesh_3"] == LG**3
        assert rows["xgrid_2"] == LG**2
        assert rows["pyramid_3"] == LG**3

    def test_table3_invalid_guest(self):
        with pytest.raises(ValueError):
            generate_table3("mesh_2")

    def test_table4_rows(self):
        rows = generate_table4()
        d = {name: (b, dl) for name, b, dl in rows}
        assert d["de Bruijn"] == ("Theta(n / lg(n))", "Theta(lg(n))")
        assert d["X-Tree"] == ("Theta(lg(n))", "Theta(lg(n))")
        assert d["Mesh_2"] == ("Theta(n^(1/2))", "Theta(n^(1/2))")
        assert d["Hypercube"][0] == "Theta(n)"

    def test_generic_generate_table(self):
        """A (strong) hypercube guest has per-processor bandwidth Theta(1),
        which no array host of growing size can match: only O(1) hosts."""
        rows = generate_table("hypercube", ["linear_array"])
        assert rows[0].bound.expr == LogPoly.one()

    def test_cell_render(self):
        row = generate_table3("de_bruijn")[0]
        assert row.cell() == "|H| <= O(lg(|G|))"


class TestFigure1:
    def test_debruijn_mesh_curves(self):
        f1 = figure1_data("de_bruijn", "mesh_2", 2**14)
        assert f1.crossover_symbolic.expr == LG**2
        assert f1.crossover_numeric == pytest.approx(196.0)

    def test_load_curve_shape(self):
        f1 = figure1_data("de_bruijn", "mesh_2", 2**12)
        assert f1.load_bounds == sorted(f1.load_bounds, reverse=True)
        assert f1.load_bounds[-1] == pytest.approx(1.0)

    def test_curves_cross_at_crossover(self):
        """The load curve dominates left of m* and the bandwidth curve
        right of it; the transition brackets the symbolic crossover."""
        f1 = figure1_data("de_bruijn", "mesh_2", 2**14)
        last_load_wins = max(
            m
            for m, l, b in zip(f1.m_values, f1.load_bounds, f1.bandwidth_bounds)
            if l >= b
        )
        first_bw_wins = min(
            m
            for m, l, b in zip(f1.m_values, f1.load_bounds, f1.bandwidth_bounds)
            if b > l
        )
        assert last_load_wins <= f1.crossover_numeric <= first_bw_wins

    def test_bandwidth_exceeds_load_beyond_crossover(self):
        f1 = figure1_data("de_bruijn", "mesh_2", 2**14)
        for m, load, bw in zip(f1.m_values, f1.load_bounds, f1.bandwidth_bounds):
            if m > 2 * f1.crossover_numeric:
                assert bw > load

    def test_custom_m_values_validated(self):
        with pytest.raises(ValueError):
            figure1_data("de_bruijn", "mesh_2", 256, m_values=[1])

    def test_tiny_guest_rejected(self):
        with pytest.raises(ValueError):
            figure1_data("de_bruijn", "mesh_2", 2)


class TestBottleneck:
    def test_mesh_bottleneck_free(self):
        rep = bottleneck_freeness(build_mesh(6, 2), trials=4, seed=0)
        assert rep.is_bottleneck_free()
        assert rep.worst_ratio > 0

    def test_tree_bottleneck_free(self):
        rep = bottleneck_freeness(build_tree(4), trials=4, seed=0)
        assert rep.is_bottleneck_free()

    def test_report_str(self):
        rep = bottleneck_freeness(build_mesh(4, 2), trials=2, seed=0)
        assert "bottleneck" in str(rep)


class TestLambda:
    def test_formula_is_delta(self):
        assert lam_formula("mesh_2") == LogPoly.n(Fraction(1, 2))
        assert lam_formula("de_bruijn") == LG

    def test_numeric_close_to_diameter_scale(self):
        m = build_mesh(8, 2)
        lam = lam_numeric(m)
        assert m.diameter() / 4 <= lam <= m.diameter()

    def test_depth_condition_mesh_constant(self):
        """Meshes satisfy Lemma 9's condition with ratio O(1)."""
        assert lemma9_depth_condition(build_mesh(8, 2)) <= 4.0

    def test_depth_condition_debruijn_constant(self):
        assert lemma9_depth_condition(build_de_bruijn(6)) <= 4.0
