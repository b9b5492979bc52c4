"""Routing strategies: itinerary builders for the simulator.

A strategy turns (source, destination) messages into itineraries:

* :func:`shortest_path_route` -- greedy shortest-path (oblivious,
  deterministic given the tie-breaking of the next-hop tables);
* :func:`valiant_route` -- Valiant/VLB two-phase randomised routing via a
  uniformly random intermediate node, the standard congestion-smoothing
  baseline on hypercubic networks.

Construction is batched: messages are validated with one vectorized
range check instead of a per-message Python test, and the itinerary
lists are emitted in bulk.  ``shortest_path_itineraries`` and
``valiant_itineraries`` return the same itineraries as one int64
array, which the measurement paths hand to the simulator unconverted.
(The per-hop table lookups themselves happen inside the simulator,
against the machine-shared dense
:class:`~repro.routing.tables.NextHopTables`.)
"""

from __future__ import annotations

import numpy as np

from repro.topologies.base import Machine
from repro.util import rng_from_seed

__all__ = ["shortest_path_route", "valiant_route"]


def _checked_endpoints(
    machine: Machine, messages: list[tuple[int, int]]
) -> np.ndarray:
    """Messages as an (m, 2) int array, range-checked in one pass."""
    n = machine.num_nodes
    msgs = np.asarray(messages, dtype=np.int64).reshape(-1, 2)
    bad = (msgs < 0) | (msgs >= n)
    if bad.any():
        s, d = (int(x) for x in msgs[bad.any(axis=1).argmax()])
        raise ValueError(f"message ({s}, {d}) out of range for n={n}")
    return msgs


def shortest_path_itineraries(
    machine: Machine, messages: list[tuple[int, int]]
) -> np.ndarray:
    """:func:`shortest_path_route` as an int64 ``(m, 2)`` array, the form
    the simulator routes without converting it."""
    return _checked_endpoints(machine, messages)


def shortest_path_route(
    machine: Machine, messages: list[tuple[int, int]]
) -> list[list[int]]:
    """Direct itineraries ``[src, dst]``."""
    return shortest_path_itineraries(machine, messages).tolist()


def valiant_itineraries(
    machine: Machine,
    messages: list[tuple[int, int]],
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """:func:`valiant_route` as an int64 ``(m, 3)`` array."""
    msgs = _checked_endpoints(machine, messages)
    rng = rng_from_seed(seed)
    mids = rng.integers(0, machine.num_nodes, size=len(msgs))
    return np.column_stack([msgs[:, 0], mids, msgs[:, 1]])


def valiant_route(
    machine: Machine,
    messages: list[tuple[int, int]],
    seed: int | np.random.Generator | None = None,
) -> list[list[int]]:
    """Two-phase itineraries ``[src, random intermediate, dst]``."""
    return valiant_itineraries(machine, messages, seed).tolist()
