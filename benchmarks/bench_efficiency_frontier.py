"""The empirical efficiency frontier: where measured emulations stop
being work-preserving.

Tables 1-3 predict the largest *possible* efficient host per (guest,
host) family pair.  This bench measures the other side: run the
executable emulator across a host-size sweep, compute the measured
inefficiency ``I(m) = S(m) * m / n``, and check its *shape*:

* ``I(m)`` is non-decreasing in the host size once communication
  dominates (bigger hosts waste more),
* below the symbolic crossover the inefficiency stays within a fixed
  band (work-preserving regime), and
* the growth of ``I(m)`` beyond the crossover tracks the bandwidth
  bound's prediction ``beta_G / (beta_H(m) * n/m)`` within constants.

The emulator is a plain (non-redundant) strategy, so its constants sit
above the theoretical optimum; the *shape* claims are what the paper
determines, and they are what is asserted.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.emulation import Emulator
from repro.theory import symbolic_slowdown
from repro.topologies import build_de_bruijn, build_mesh
from repro.util import format_table


def _sweep():
    guest = build_de_bruijn(8)  # n = 256, lg^2 n = 64
    hosts = [build_mesh(s, 2) for s in (2, 4, 8, 12, 16)]
    return guest, [Emulator(guest, h).run(2) for h in hosts]


def test_inefficiency_monotone(benchmark):
    guest, reps = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    ineff = [r.inefficiency for r in reps]
    # Allow one local wiggle (routing noise) but require overall rise.
    assert ineff[-1] > 2 * ineff[0]
    assert ineff == sorted(ineff) or ineff[-1] >= max(ineff[:-1])


def test_small_hosts_work_preserving(benchmark):
    _, reps = _sweep()
    # The smallest hosts (m << lg^2 n = 64) stay within a fixed band.
    small = [r for r in reps if r.host_size <= 16]
    assert small, "sweep must include sub-crossover hosts"
    for r in small:
        assert r.inefficiency <= 8.0, (r.host_size, r.inefficiency)


def test_growth_tracks_bandwidth_prediction(benchmark):
    guest, reps = _sweep()
    bound = symbolic_slowdown("de_bruijn", "mesh_2")
    n = guest.num_nodes
    base, last = reps[1], reps[-1]  # m = 16 vs m = 256
    predicted = (
        bound.evaluate(n, last.host_size) * last.host_size / n
    ) / (bound.evaluate(n, base.host_size) * base.host_size / n)
    measured = last.inefficiency / base.inefficiency
    assert predicted / 4 <= measured <= predicted * 4, (predicted, measured)


def test_frontier_print(benchmark):
    guest, reps = _sweep()
    rows = [
        (
            r.host_size,
            f"{r.slowdown:8.1f}",
            f"{r.load_bound:7.2f}",
            f"{r.bandwidth_bound:7.2f}",
            f"{r.inefficiency:7.2f}",
            "yes" if r.is_efficient else "no",
        )
        for r in reps
    ]
    emit(
        format_table(
            ["|H|", "measured S", "load bound", "bandwidth bound",
             "inefficiency I", "work-preserving?"],
            rows,
            title=(
                f"Efficiency frontier: de Bruijn (n={guest.num_nodes}) on "
                f"mesh hosts (symbolic crossover at lg^2 n = 64)"
            ),
        )
    )
