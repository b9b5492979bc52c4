"""Open-loop injection sweeps: throughput and latency vs offered load.

The paper's bandwidth definition descends from the cost/performance
methodology of Kruskal & Snir [9]: offer traffic at a per-processor rate
``r`` and watch the network either keep up (latency flat, delivered rate
= offered rate) or saturate (queues and latency blow up, delivered rate
plateaus at ``beta(M)/n`` per processor).  :func:`saturation_sweep` runs
that experiment on the simulator; the knee of the curve is a third,
fully operational estimate of the machine bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import trace as obs
from repro.routing.measure import resolve_traffic
from repro.routing.simulator import RoutingSimulator
from repro.topologies.base import Machine
from repro.traffic.distribution import TrafficDistribution
from repro.util import check_positive_int, rng_from_seed

__all__ = [
    "SaturationPoint",
    "saturation_bandwidth",
    "saturation_sweep",
    "saturation_sweep_job",
]


@dataclass(frozen=True)
class SaturationPoint:
    """One offered-load measurement."""

    offered_rate: float  # packets per processor per tick
    delivered_rate: float  # total packets delivered per tick
    mean_latency: float
    p99_latency: float
    max_queue: int

    @property
    def per_node_delivered(self) -> float:
        return self.delivered_rate

    def __str__(self) -> str:
        return (
            f"r={self.offered_rate:.3f}: delivered {self.delivered_rate:.2f}/tick, "
            f"latency mean {self.mean_latency:.1f} p99 {self.p99_latency:.1f}"
        )


def saturation_sweep(
    machine: Machine,
    rates: list[float] | None = None,
    duration: int = 128,
    traffic: TrafficDistribution | None = None,
    policy: str = "fifo",
    seed: int | np.random.Generator | None = None,
    engine: str = "fast",
    workload=None,
    workload_params: dict | None = None,
) -> list[SaturationPoint]:
    """Measure delivered rate and latency at each offered per-node rate.

    For each rate ``r``, every processor independently injects a packet
    with probability ``r`` per tick for ``duration`` ticks (destinations
    drawn from ``traffic``, default symmetric); the run then drains.
    Delivered rate is measured over the injection window; latency is per
    packet (delivery - release).  ``engine`` selects the simulator
    implementation (``"fast"``, ``"reference"``, ``"event"``,
    ``"compiled"``, or ``"auto"``); low-rate sweeps are exactly the
    idle-dominated regime where the event engine wins (see
    docs/PERFORMANCE.md).

    The returned curve always has exactly one point per requested rate,
    in order: a rate whose Bernoulli draw injects zero packets yields an
    all-zero :class:`SaturationPoint` instead of being silently skipped
    (which used to misalign the curve with ``rates``).  On the fast
    engine all rates are routed as **one batch** through the shared
    multi-run kernel; per-rate results are bit-identical to routing each
    rate alone.

    ``workload`` names a registered scenario (a :mod:`repro.workloads`
    key or built ``Workload``) instead of passing ``traffic`` directly;
    a bursty workload additionally masks injection with its on-off gate
    (applied *after* the Bernoulli draw, so the rng stream -- and hence
    every non-gated run -- is byte-identical to the pre-workload code).
    """
    check_positive_int(duration, "duration")
    rng = rng_from_seed(seed)
    n = machine.num_nodes
    with obs.span(
        "saturation_sweep", machine=machine.name, duration=duration
    ) as sp:
        traffic, wl = resolve_traffic(n, traffic, workload, workload_params)
        gate_open = None if wl is None else wl.gate_open(duration)
        if rates is None:
            rates = [0.05, 0.1, 0.2, 0.4, 0.7, 1.0]
        sp.set(rates=len(rates))
        sim = RoutingSimulator(machine, policy=policy, engine=engine)
        draw = traffic.sampler()  # hoist the per-rate O(support) setup
        # Draw every rate's injections and destinations first (the rng
        # consumption order matches the old one-rate-at-a-time loop, so
        # sampled workloads are unchanged), then route them as one batch.
        runs: list[tuple[np.ndarray, list[int]] | None] = []
        for r in rates:
            if not 0 < r <= 1:
                raise ValueError(f"rates must be in (0, 1], got {r}")
            # Bernoulli injection at each (node, tick).
            inject = rng.random((duration, n)) < r
            if gate_open is not None:
                inject &= gate_open[:, None]
            count = int(inject.sum())
            if count == 0:
                runs.append(None)
                continue
            dst = draw(count, seed=rng)[:, 1]
            ticks, nodes = np.nonzero(inject)
            # Keep the sampled destination but anchor the source at the
            # injecting node so the spatial process is honest; a sampled
            # self-destination bumps to the next node, as before.
            dst = np.where(dst == nodes, (dst + 1) % n, dst)
            runs.append((np.column_stack([nodes, dst]), ticks.tolist()))
        live = [run for run in runs if run is not None]
        results = iter(
            sim.route_batch(
                [its for its, _ in live],
                [rel for _, rel in live],
            )
        )
        points = []
        for r, run in zip(rates, runs):
            if run is None:
                points.append(
                    SaturationPoint(
                        offered_rate=float(r),
                        delivered_rate=0.0,
                        mean_latency=0.0,
                        p99_latency=0.0,
                        max_queue=0,
                    )
                )
                continue
            _, release = run
            result = next(results)
            latencies = result.delivery_times - np.asarray(release)
            points.append(
                SaturationPoint(
                    offered_rate=float(r),
                    delivered_rate=result.num_packets / max(1, result.total_time),
                    mean_latency=float(latencies.mean()),
                    p99_latency=float(np.percentile(latencies, 99)),
                    max_queue=result.max_queue,
                )
            )
    return points


def saturation_bandwidth(
    machine: Machine,
    rates: list[float] | None = None,
    duration: int = 128,
    seed: int | np.random.Generator | None = None,
    engine: str = "fast",
) -> float:
    """The plateau of the delivered-rate curve: an operational beta."""
    points = saturation_sweep(
        machine, rates=rates, duration=duration, seed=seed, engine=engine
    )
    if not points:
        raise RuntimeError("no load points measured")
    return max(p.delivered_rate for p in points)


def saturation_sweep_job(spec: dict) -> dict:
    """Harness job entry point for :func:`saturation_sweep`.

    Registered as the ``saturation_sweep`` alias: ``family`` is
    required; ``size`` (64), ``rates`` (the default ladder),
    ``duration`` (128), ``policy`` (``"fifo"``), ``seed`` (0) and
    ``engine`` (``"fast"``) are optional, as are ``workload`` (scenario
    key, default symmetric) and ``workload_params`` -- both omitted from
    the spec (and hence the content hash) when unused, so pre-workload
    cache entries stay valid.  Each measured point becomes one dict so
    the whole curve is a JSON value.
    """
    from repro.topologies.registry import family_spec

    machine = family_spec(spec["family"]).build_with_size(int(spec.get("size", 64)))
    points = saturation_sweep(
        machine,
        rates=spec.get("rates"),
        duration=int(spec.get("duration", 128)),
        policy=spec.get("policy", "fifo"),
        seed=int(spec.get("seed", 0)),
        engine=spec.get("engine", "fast"),
        workload=spec.get("workload"),
        workload_params=spec.get("workload_params"),
    )
    out = {
        "family": spec["family"],
        "machine": repr(machine),
        "n": machine.num_nodes,
        "points": [
            {
                "offered_rate": p.offered_rate,
                "delivered_rate": p.delivered_rate,
                "mean_latency": p.mean_latency,
                "p99_latency": p.p99_latency,
                "max_queue": p.max_queue,
            }
            for p in points
        ],
    }
    if spec.get("workload") is not None:
        out["workload"] = spec["workload"]
    return out
