"""Collective communication patterns as multi-phase traffic.

An all-reduce is not an i.i.d. message distribution -- it is a fixed
*schedule*: a sequence of phases, each phase a set of (source,
destination) messages, with phase ``p`` logically dependent on phase
``p - 1``.  Two classic schedules are modelled:

* **ring** (reduce-scatter + all-gather): ``2 (n - 1)`` phases; in every
  phase each node ``i`` sends one chunk to ``(i + 1) mod n``.
* **tree** (reduce to root + broadcast): an implicit binary heap over
  ``0 .. n-1``; leaves-to-root phases followed by root-to-leaves phases.

For the sampled-traffic code paths (``measure_bandwidth``,
``saturation_sweep``) the schedule is flattened into its stationary pair
distribution (each scheduled pair weighted by how often it appears); for
honest end-to-end timing, :func:`all_reduce_time` routes the full
schedule with per-phase release times through any routing engine.
"""

from __future__ import annotations

from repro.routing.simulator import DEFAULT_ENGINE, RoutingSimulator
from repro.topologies.base import Machine
from repro.topologies.registry import family_spec
from repro.traffic.distribution import TrafficDistribution
from repro.util import check_positive_int

__all__ = [
    "all_reduce_ring_traffic",
    "all_reduce_schedule",
    "all_reduce_time",
    "all_reduce_time_job",
    "all_reduce_tree_traffic",
]


def _heap_depth(i: int) -> int:
    return (i + 1).bit_length() - 1


def all_reduce_schedule(n: int, kind: str = "ring") -> list[list[tuple[int, int]]]:
    """Phase list for an ``n``-node all-reduce (``kind`` in ring/tree)."""
    check_positive_int(n, "n", minimum=2)
    if kind == "ring":
        phase = [(i, (i + 1) % n) for i in range(n)]
        return [list(phase) for _ in range(2 * (n - 1))]
    if kind == "tree":
        max_depth = _heap_depth(n - 1)
        up = [
            [(i, (i - 1) // 2) for i in range(1, n) if _heap_depth(i) == d]
            for d in range(max_depth, 0, -1)
        ]
        down = [
            [((i - 1) // 2, i) for i in range(1, n) if _heap_depth(i) == d]
            for d in range(1, max_depth + 1)
        ]
        return up + down
    raise ValueError(f"unknown all-reduce kind {kind!r}; known: ['ring', 'tree']")


def _schedule_traffic(n: int, kind: str) -> TrafficDistribution:
    pairs: dict[tuple[int, int], float] = {}
    for phase in all_reduce_schedule(n, kind):
        for pair in phase:
            pairs[pair] = pairs.get(pair, 0.0) + 1.0
    return TrafficDistribution(n, pairs, name=f"all_reduce_{kind}")


def all_reduce_ring_traffic(n: int) -> TrafficDistribution:
    """Stationary pair distribution of the ring all-reduce: every node
    sends to its successor, all pairs equally often."""
    return _schedule_traffic(n, "ring")


def all_reduce_tree_traffic(n: int) -> TrafficDistribution:
    """Stationary pair distribution of the tree all-reduce: one up and
    one down message per parent-child edge of the implicit heap."""
    return _schedule_traffic(n, "tree")


def all_reduce_time(
    machine: Machine,
    kind: str = "ring",
    policy: str = "fifo",
    engine: str = DEFAULT_ENGINE,
) -> dict:
    """Route a full all-reduce schedule and report its end-to-end time.

    Phase ``p`` is released at tick ``p`` (pipelined across phases, the
    optimistic open-model reading of the dependency chain), and the
    result records the makespan plus the schedule shape.  Deterministic:
    no sampling is involved, so no seed parameter exists.
    """
    schedule = all_reduce_schedule(machine.num_nodes, kind)
    itineraries: list[list[int]] = []
    release_times: list[int] = []
    for p, phase in enumerate(schedule):
        itineraries.extend([s, d] for s, d in phase)
        release_times.extend([p] * len(phase))
    sim = RoutingSimulator(machine, policy=policy, engine=engine)
    result = sim.route(itineraries, release_times=release_times)
    return {
        "family": machine.family,
        "n": machine.num_nodes,
        "kind": kind,
        "policy": policy,
        "num_phases": len(schedule),
        "num_messages": len(itineraries),
        "total_time": result.total_time,
        "messages_per_tick": (
            len(itineraries) / result.total_time if result.total_time else 0.0
        ),
    }


def all_reduce_time_job(spec: dict) -> dict:
    """Harness job: time an all-reduce schedule on a registry family.

    Spec keys: ``family``, ``size`` (default 64), ``kind`` (ring/tree),
    ``policy``, ``engine``.
    """
    family = spec["family"]
    machine = family_spec(family).build_with_size(int(spec.get("size", 64)))
    return all_reduce_time(
        machine,
        kind=spec.get("kind", "ring"),
        policy=spec.get("policy", "fifo"),
        engine=spec.get("engine", DEFAULT_ENGINE),
    )
