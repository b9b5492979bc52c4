"""Operational bandwidth measurement (the paper's functional definition).

``beta(M, pi)`` is the expected average delivery rate ``m / T(m)`` in the
limit of a large batch ``m`` of messages drawn from ``pi`` (Theorem 6
shows it equals the graph-theoretic ``E(T_pi)/C(M, T_pi)`` to within
Theta).  :func:`measure_bandwidth` estimates it by routing concrete
batches on the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import trace as obs
from repro.routing.simulator import DEFAULT_ENGINE, RoutingResult, RoutingSimulator
from repro.routing.dimension_order import dimension_order_route
from repro.routing.strategies import shortest_path_route, valiant_route
from repro.topologies.base import Machine
from repro.traffic.distribution import TrafficDistribution, symmetric_traffic
from repro.util import check_positive_int, rng_from_seed

__all__ = [
    "BandwidthMeasurement",
    "measure_bandwidth",
    "measure_bandwidth_many",
    "measure_bandwidth_job",
    "measure_bandwidth_batch_job",
]

_STRATEGIES = ("shortest", "valiant", "dimension_order")


@dataclass(frozen=True)
class BandwidthMeasurement:
    """An empirical bandwidth estimate and the run it came from."""

    machine_name: str
    traffic_name: str
    strategy: str
    num_messages: int
    total_time: int
    rate: float
    max_edge_traffic: int
    mean_latency: float

    def __str__(self) -> str:
        return (
            f"beta^({self.machine_name}, {self.traffic_name}) ~ {self.rate:.3f} "
            f"({self.num_messages} msgs / {self.total_time} ticks, {self.strategy})"
        )


def measure_bandwidth(
    machine: Machine,
    traffic: TrafficDistribution | None = None,
    num_messages: int | None = None,
    strategy: str = "shortest",
    policy: str = "farthest",
    seed: int | np.random.Generator | None = None,
    engine: str = DEFAULT_ENGINE,
    workload=None,
    workload_params: dict | None = None,
) -> BandwidthMeasurement:
    """Estimate the operational bandwidth of ``machine`` under ``traffic``.

    Defaults: symmetric traffic (the distribution defining ``beta(M)``)
    and a batch of ``8 * n`` messages, which is deep enough to saturate
    the bottleneck links of every family in the registry while staying
    laptop-fast.  ``engine`` selects the simulator implementation
    (any of :data:`~repro.routing.simulator.ENGINES`; all give identical
    results -- see docs/PERFORMANCE.md for when each wins).
    ``workload`` names a registered scenario (a :mod:`repro.workloads`
    key or built ``Workload``) as an alternative to passing ``traffic``
    directly; the two are mutually exclusive.
    """
    rng = rng_from_seed(seed)
    with obs.span(
        "measure_bandwidth", machine=machine.name, strategy=strategy
    ) as sp:
        traffic, num_messages = _validated(
            machine, traffic, num_messages, strategy, workload, workload_params
        )
        sp.set(num_messages=num_messages)
        with obs.span("measure.sample"):
            messages = traffic.sampler()(num_messages, seed=rng)
        with obs.span("measure.plan", strategy=strategy):
            itineraries = _plan(machine, messages, strategy, rng)

        sim = RoutingSimulator(machine, policy=policy, engine=engine)
        result: RoutingResult = sim.route(itineraries)
        sp.set(ticks=result.total_time, rate=round(result.delivery_rate, 4))
    return BandwidthMeasurement(
        machine_name=machine.name,
        traffic_name=traffic.name,
        strategy=strategy,
        num_messages=num_messages,
        total_time=result.total_time,
        rate=result.delivery_rate,
        max_edge_traffic=result.max_edge_traffic,
        mean_latency=result.mean_latency,
    )


def _validated(machine, traffic, num_messages, strategy, workload=None,
               workload_params=None):
    """Shared front half of the single and batched measurements."""
    if strategy not in _STRATEGIES:
        raise ValueError(f"strategy must be one of {_STRATEGIES}, got {strategy!r}")
    n = machine.num_nodes
    traffic, _ = resolve_traffic(n, traffic, workload, workload_params)
    if traffic.n != n:
        raise ValueError(
            f"traffic is over {traffic.n} nodes but machine has {n}"
        )
    if num_messages is None:
        num_messages = 8 * n
    check_positive_int(num_messages, "num_messages")
    return traffic, num_messages


def resolve_traffic(
    n: int, traffic=None, workload=None, workload_params: dict | None = None
):
    """The distribution a run samples from, plus its ``Workload`` if named.

    ``traffic`` and ``workload`` (a :mod:`repro.workloads` key or built
    ``Workload``) are mutually exclusive; with neither, the symmetric
    distribution.  What has to be built is built under a
    ``traffic.build`` span.
    """
    if workload is None:
        if workload_params:
            raise ValueError("workload params given without a workload key")
        if traffic is not None:
            return traffic, None
        with obs.span("traffic.build", n=n):
            return symmetric_traffic(n), None
    if traffic is not None:
        raise ValueError("pass either traffic or workload, not both")
    from repro.workloads.registry import resolve_workload

    with obs.span("traffic.build", n=n):
        wl = resolve_workload(workload, n, workload_params)
    return wl.traffic, wl


def _plan(machine: Machine, messages: np.ndarray, strategy: str, rng) -> list[list[int]]:
    """Itineraries for one sampled ``(m, 2)`` message array."""
    if strategy == "shortest":
        return shortest_path_route(machine, messages)
    if strategy == "dimension_order":
        return dimension_order_route(machine, messages.tolist())
    return valiant_route(machine, messages, seed=rng)


def measure_bandwidth_many(
    machine: Machine,
    seeds: list[int],
    traffic: TrafficDistribution | None = None,
    num_messages: int | None = None,
    strategy: str = "shortest",
    policy: str = "farthest",
    engine: str = DEFAULT_ENGINE,
    workload=None,
    workload_params: dict | None = None,
) -> list[BandwidthMeasurement]:
    """Batched :func:`measure_bandwidth` across many seeds.

    Returns one :class:`BandwidthMeasurement` per seed, each
    **bit-identical** to ``measure_bandwidth(machine, seed=s, ...)`` on
    that seed alone.  The shared work is paid once instead of per seed:
    the traffic distribution is built once, the dense next-hop tables
    are reused, and on the fast engine all runs share one vectorized
    tick loop (:meth:`RoutingSimulator.route_batch`), so an 8-seed
    replication costs far less than 8 sequential measurements.
    """
    with obs.span(
        "measure_bandwidth.many",
        machine=machine.name,
        strategy=strategy,
        runs=len(seeds),
    ) as sp:
        traffic, num_messages = _validated(
            machine, traffic, num_messages, strategy, workload, workload_params
        )
        sp.set(num_messages=num_messages)
        batches = []
        draw = traffic.sampler()  # hoist the per-call O(support) setup
        for seed in seeds:
            rng = rng_from_seed(seed)
            with obs.span("measure.sample"):
                messages = draw(num_messages, seed=rng)
            with obs.span("measure.plan", strategy=strategy):
                batches.append(_plan(machine, messages, strategy, rng))

        sim = RoutingSimulator(machine, policy=policy, engine=engine)
        results = sim.route_batch(batches)
    return [
        BandwidthMeasurement(
            machine_name=machine.name,
            traffic_name=traffic.name,
            strategy=strategy,
            num_messages=num_messages,
            total_time=result.total_time,
            rate=result.delivery_rate,
            max_edge_traffic=result.max_edge_traffic,
            mean_latency=result.mean_latency,
        )
        for result in results
    ]


def measure_bandwidth_job(spec: dict) -> dict:
    """Harness job entry point for :func:`measure_bandwidth`.

    The spec is total (registered as the ``measure_bandwidth`` alias in
    :mod:`repro.harness.jobs`): ``family`` is required; ``size`` (256),
    ``strategy`` (``"shortest"``), ``policy`` (``"farthest"``),
    ``num_messages`` (the ``8n`` default), ``seed`` (0) and ``engine``
    (``"auto"``) are optional, as are ``workload`` (a scenario key,
    default symmetric) and ``workload_params`` -- both omitted from the
    spec (and hence the content hash) when unused, so pre-workload cache
    entries stay valid.  Returns a JSON-serializable dict; given the
    same spec the values are bit-identical in any process.
    """
    from repro.topologies.registry import family_spec

    machine = family_spec(spec["family"]).build_with_size(int(spec.get("size", 256)))
    meas = measure_bandwidth(
        machine,
        num_messages=spec.get("num_messages"),
        strategy=spec.get("strategy", "shortest"),
        policy=spec.get("policy", "farthest"),
        seed=int(spec.get("seed", 0)),
        engine=spec.get("engine", DEFAULT_ENGINE),
        workload=spec.get("workload"),
        workload_params=spec.get("workload_params"),
    )
    out = {
        "family": spec["family"],
        "machine": meas.machine_name,
        "n": machine.num_nodes,
        "strategy": meas.strategy,
        "num_messages": meas.num_messages,
        "total_time": meas.total_time,
        "rate": meas.rate,
        "max_edge_traffic": meas.max_edge_traffic,
        "mean_latency": meas.mean_latency,
    }
    if spec.get("workload") is not None:
        out["workload"] = spec["workload"]
        out["traffic"] = meas.traffic_name
    return out


def measure_bandwidth_batch_job(spec: dict) -> dict:
    """Harness job entry point for a seed-replicated bandwidth estimate.

    Registered as the ``measure_bandwidth_batch`` alias: ``family`` is
    required; ``size`` (256), ``strategy`` (``"shortest"``), ``policy``
    (``"farthest"``), ``num_messages`` (the ``8n`` default),
    ``replicates`` (8), ``base_seed`` (0) and ``engine`` (``"auto"``)
    are optional.  The seeds route together through
    :func:`measure_bandwidth_many`, whose values equal sequential
    :func:`measure_bandwidth` calls bit for bit.
    """
    from repro.experiments import Replication
    from repro.topologies.registry import family_spec

    machine = family_spec(spec["family"]).build_with_size(int(spec.get("size", 256)))
    replicates = int(spec.get("replicates", 8))
    check_positive_int(replicates, "replicates")
    base_seed = int(spec.get("base_seed", 0))
    seeds = [base_seed + i for i in range(replicates)]
    kwargs = dict(
        num_messages=spec.get("num_messages"),
        strategy=spec.get("strategy", "shortest"),
        policy=spec.get("policy", "farthest"),
        engine=spec.get("engine", DEFAULT_ENGINE),
        workload=spec.get("workload"),
        workload_params=spec.get("workload_params"),
    )
    many = measure_bandwidth_many(machine, seeds, **kwargs)
    rep = Replication(values=tuple(m.rate for m in many))
    out = {
        "family": spec["family"],
        "machine": many[0].machine_name,
        "n": machine.num_nodes,
        "strategy": many[0].strategy,
        "num_messages": many[0].num_messages,
        "replicates": replicates,
        "base_seed": base_seed,
        "rates": [m.rate for m in many],
        "total_times": [m.total_time for m in many],
        "rate_mean": rep.mean,
        "rate_std": rep.std,
        "rate_p50": rep.p50,
        "rate_ci95": rep.ci95,
        "rate_min": rep.min,
        "rate_max": rep.max,
    }
    if spec.get("workload") is not None:
        out["workload"] = spec["workload"]
        out["traffic"] = many[0].traffic_name
    return out
