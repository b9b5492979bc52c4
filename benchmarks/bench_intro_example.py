"""The introduction's worked example, quantitative end-to-end.

Claims reproduced:

* S_c >= Omega(n / (sqrt(m) lg n)) for a de Bruijn guest on a 2-d mesh;
* the largest efficient mesh is m = O(lg^2 n);
* measured emulation slowdown tracks the bound's growth in n at fixed m
  (who wins, by roughly what factor).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from conftest import emit
from repro import Emulator, max_host_size, symbolic_slowdown
from repro.asymptotics import LogPoly, substitute
from repro.topologies import build_de_bruijn, build_mesh
from repro.util import format_table


def test_symbolic_bound_form(benchmark):
    bound = benchmark(symbolic_slowdown, "de_bruijn", "mesh_2")
    assert bound.beta_guest == LogPoly.n() / LogPoly.log()
    assert bound.beta_host == LogPoly.n(Fraction(1, 2))
    # S_c as a function of n at m = n (equal sizes): n^(1/2)/lg n.
    s_equal = bound.specialise(LogPoly.n())
    assert s_equal == LogPoly.n(Fraction(1, 2)) / LogPoly.log()


def test_max_host_is_lg_squared(benchmark):
    host = benchmark(max_host_size, "de_bruijn", "mesh_2")
    assert host.expr == LogPoly.log() ** 2


def test_efficiency_forces_polylog_host(benchmark):
    """At m = lg^2 n the slowdown bound equals n/m: work is conserved.
    One size up (m = lg^3 n) the bound strictly exceeds n/m: waste."""
    bound = symbolic_slowdown("de_bruijn", "mesh_2")
    n = LogPoly.n()
    at_star = bound.beta_guest / substitute(bound.beta_host, LogPoly.log() ** 2)
    assert at_star == n / LogPoly.log() ** 2  # equals load bound n/m
    at_big = bound.beta_guest / substitute(bound.beta_host, LogPoly.log() ** 3)
    load_at_big = n / LogPoly.log() ** 3
    assert at_big > load_at_big


def test_measured_slowdown_tracks_n_over_lg(benchmark):
    """Fixed 4x4 mesh host, growing de Bruijn guests: measured slowdown
    ratios follow Theta(n / lg n) within 2.5x."""
    host_side = 4

    def run():
        out = {}
        for order in (6, 7, 8):
            rep = Emulator(build_de_bruijn(order), build_mesh(host_side, 2)).run(2)
            out[order] = rep
        return out

    reps = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = []
    for order, rep in sorted(reps.items()):
        n = rep.guest_size
        predicted = (n / order) / (host_side)  # n/(lg n * sqrt m)
        rows.append((n, f"{predicted:8.1f}", f"{rep.slowdown:8.1f}"))
    emit(
        format_table(
            ["guest n", "bound n/(lg n sqrt m)", "measured S"],
            rows,
            title="Intro example: de Bruijn on a fixed 4x4 mesh",
        )
    )
    s6, s8 = reps[6].slowdown, reps[8].slowdown
    predicted_ratio = (2**8 / 8) / (2**6 / 6)
    assert predicted_ratio / 2.5 <= s8 / s6 <= predicted_ratio * 2.5
