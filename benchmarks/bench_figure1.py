"""Figure 1: communication-induced vs load-induced slowdown.

Regenerates both curves for the paper's running pair (de Bruijn guest on
2-d mesh hosts), asserts the qualitative shape -- the load line
dominates left of the crossover, the bandwidth curve right of it, and
the crossover sits at Theta(lg^2 n) -- and adds *measured* emulation
points from the executable emulator on a small instance, checking every
measured slowdown sits above the theoretical envelope.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro import Emulator, figure1_data
from repro.topologies import build_de_bruijn, build_mesh
from repro.util import format_table


def test_figure1_series(benchmark):
    f1 = benchmark(figure1_data, "de_bruijn", "mesh_2", 2**14)
    assert f1.crossover_numeric == pytest.approx(196.0)
    # Load curve strictly decreasing; bandwidth curve non-increasing.
    assert f1.load_bounds == sorted(f1.load_bounds, reverse=True)
    assert all(
        a >= b for a, b in zip(f1.bandwidth_bounds, f1.bandwidth_bounds[1:])
    )
    # The sign of (load - bandwidth) flips exactly once, at the crossover.
    signs = [l >= b for l, b in zip(f1.load_bounds, f1.bandwidth_bounds)]
    flip = signs.index(False)
    assert all(signs[:flip]) and not any(signs[flip:])
    assert f1.m_values[flip - 1] <= f1.crossover_numeric <= f1.m_values[flip]

    emit(
        format_table(
            ["|H|", "load n/m", "bandwidth beta_G/beta_H", "envelope"],
            [
                (m, f"{l:9.2f}", f"{b:9.2f}", f"{e:9.2f}")
                for (m, l, b, e) in f1.rows()
            ],
            title=(
                "Figure 1: de Bruijn (n=16384) on 2-d mesh hosts; "
                f"crossover {f1.crossover_symbolic.render('n')} ~ "
                f"{f1.crossover_numeric:.0f}"
            ),
        )
    )


@pytest.mark.parametrize("guest_key,host_key,n", [
    ("de_bruijn", "linear_array", 2**14),
    ("mesh_3", "mesh_2", 2**12),
    ("xtree", "tree", 2**12),
])
def test_figure1_other_pairs(guest_key, host_key, n, benchmark):
    f1 = benchmark(figure1_data, guest_key, host_key, n)
    assert 2 <= f1.crossover_numeric <= n


def test_figure1_measured_points(benchmark):
    """Measured emulation slowdowns sit on-or-above the envelope."""
    guest = build_de_bruijn(8)  # n = 256, lg^2 n = 64
    hosts = [build_mesh(s, 2) for s in (3, 4, 6, 8, 12, 16)]

    def run_all():
        return [Emulator(guest, h).run(2) for h in hosts]

    reports = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = []
    for rep in reports:
        envelope = max(rep.load_bound, rep.bandwidth_bound)
        assert rep.slowdown >= 0.9 * envelope, rep
        rows.append(
            (
                rep.host_size,
                f"{rep.load_bound:7.2f}",
                f"{rep.bandwidth_bound:7.2f}",
                f"{rep.slowdown:8.2f}",
            )
        )
    emit(
        format_table(
            ["|H|", "load bound", "bandwidth bound", "measured S"],
            rows,
            title="Figure 1, measured: de Bruijn (n=256) on mesh hosts",
        )
    )
