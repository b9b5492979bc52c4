"""An executable emulation: run guest steps on a smaller host.

The host mimics the most general guest computation: at every guest step,
every guest link carries a message in both directions (the paper's
redundant model must support arbitrary communication, so the worst-case
pattern *is* the guest graph).  The emulator

1. maps guest processors onto host processors with balanced load
   (ceil(n/m) guests each) using a locality-preserving linearisation,
2. converts one guest step's messages into host messages (dropping
   intra-processor ones),
3. routes them on the synchronous simulator,
4. charges ``compute = load`` plus the routing time per guest step.

The measured slowdown is then compared against the paper's two lower
bounds: the load bound ``n/m`` and the bandwidth bound
``beta_G / beta_H`` (Figure 1's two curves).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bandwidth.graph_theoretic import numeric_slowdown_bound
from repro.embedding.embedders import _bfs_order
from repro.obs import trace as obs
from repro.routing.simulator import RoutingSimulator
from repro.topologies.base import Machine
from repro.topologies.registry import family_spec
from repro.util import check_positive_int

__all__ = ["EmulationReport", "Emulator", "emulate_job"]


@dataclass(frozen=True)
class EmulationReport:
    """Outcome of emulating ``steps`` guest steps on the host."""

    guest_name: str
    host_name: str
    guest_size: int
    host_size: int
    steps: int
    host_time: int
    load: int
    messages_per_step: int
    load_bound: float
    bandwidth_bound: float

    @property
    def slowdown(self) -> float:
        """Measured slowdown S = T_H / T_G."""
        return self.host_time / self.steps

    @property
    def best_lower_bound(self) -> float:
        """max(load bound, bandwidth bound) -- the paper's Figure-1 envelope."""
        return max(self.load_bound, self.bandwidth_bound)

    @property
    def inefficiency(self) -> float:
        """The paper's I = W_H / W_G = S * m / n; efficient means O(1)."""
        return self.slowdown * self.host_size / self.guest_size

    @property
    def is_efficient(self) -> bool:
        """Inefficiency within a generous constant (I <= 8)."""
        return self.inefficiency <= 8.0

    def __str__(self) -> str:
        return (
            f"emulate {self.guest_name} ({self.guest_size}p) on "
            f"{self.host_name} ({self.host_size}p): S = {self.slowdown:.2f} "
            f"(>= load {self.load_bound:.2f}, bandwidth "
            f"{self.bandwidth_bound:.2f})"
        )

    def as_dict(self) -> dict:
        """JSON-ready record (the service / ``--json`` serialization)."""
        return {
            "guest": self.guest_name,
            "host": self.host_name,
            "guest_size": self.guest_size,
            "host_size": self.host_size,
            "steps": self.steps,
            "host_time": self.host_time,
            "load": self.load,
            "messages_per_step": self.messages_per_step,
            "slowdown": self.slowdown,
            "load_bound": self.load_bound,
            "bandwidth_bound": self.bandwidth_bound,
            "best_lower_bound": self.best_lower_bound,
            "inefficiency": self.inefficiency,
            "is_efficient": self.is_efficient,
        }


class Emulator:
    """Runs general-computation emulations of a guest on a host.

    The guest-to-host map and the routing are deterministic, so nothing
    here draws random numbers; ``seed`` is accepted for callers that
    still pass one and changes no result.
    """

    def __init__(self, guest: Machine, host: Machine, seed: int | None = None):
        if host.num_nodes > guest.num_nodes:
            raise ValueError(
                "host larger than guest: emulation slowdown is only "
                "meaningful for |H| <= |G|"
            )
        self.guest = guest
        self.host = host
        self.assignment = self._balanced_locality_map()

    def _balanced_locality_map(self) -> np.ndarray:
        """guest vertex -> host processor, BFS-linearised on both sides."""
        n, m = self.guest.num_nodes, self.host.num_nodes
        guest_order = _bfs_order(self.guest.graph, 0)
        host_order = _bfs_order(self.host.graph, 0)
        per = -(-n // m)  # ceil
        owner = np.empty(n, dtype=np.int64)
        for rank, g in enumerate(guest_order):
            owner[g] = host_order[min(rank // per, m - 1)]
        return owner

    @property
    def load(self) -> int:
        """Max guest processors emulated by one host processor."""
        return int(np.bincount(self.assignment, minlength=self.host.num_nodes).max())

    def step_messages(self) -> list[tuple[int, int]]:
        """Host messages for one worst-case guest step (both directions
        of every guest link that crosses host processors)."""
        msgs = []
        for u, v in self.guest.edges():
            hu, hv = int(self.assignment[u]), int(self.assignment[v])
            if hu != hv:
                msgs.append((hu, hv))
                msgs.append((hv, hu))
        return msgs

    def run(self, steps: int, policy: str = "farthest") -> EmulationReport:
        """Emulate ``steps`` guest steps; returns the measured report.

        Every guest step routes the same worst-case message multiset, so
        one routing determines the per-step time exactly.
        """
        check_positive_int(steps, "steps")
        with obs.span(
            "emulate.run",
            guest=self.guest.name,
            host=self.host.name,
            steps=steps,
        ) as sp:
            # One guest step routes the worst-case multiset, so one
            # traced step stands for all of them (attrs record the
            # multiplier the modeled host time applies).
            with obs.span("emulate.step", steps_modeled=steps) as step_sp:
                with obs.span("step.compute") as comp_sp:
                    msgs = self.step_messages()
                    load = self.load
                    comp_sp.set(load=load, messages=len(msgs))
                with obs.span("step.comm", messages=len(msgs)) as comm_sp:
                    sim = RoutingSimulator(self.host, policy=policy)
                    if msgs:
                        result = sim.route([[s, d] for s, d in msgs])
                        route_time = result.total_time
                    else:
                        route_time = 0
                    comm_sp.set(ticks=route_time)
                step_sp.set(compute_ticks=load, comm_ticks=route_time)
            per_step = load + route_time
            host_time = per_step * steps

            n, m = self.guest.num_nodes, self.host.num_nodes
            with obs.span("emulate.bounds"):
                bw_bound = numeric_slowdown_bound(self.guest, self.host)
            sp.set(host_time=host_time, load=load, comm_ticks=route_time)
        obs.add("emulate.steps", steps)
        obs.add("emulate.host_ticks", host_time)
        return EmulationReport(
            guest_name=self.guest.name,
            host_name=self.host.name,
            guest_size=n,
            host_size=m,
            steps=steps,
            host_time=host_time,
            load=load,
            messages_per_step=len(msgs),
            load_bound=n / m,
            bandwidth_bound=bw_bound,
        )


def emulate_job(spec: dict) -> dict:
    """Harness job entry point for :class:`Emulator`.

    Registered as the ``emulate`` alias in :mod:`repro.harness.jobs`:
    ``guest`` and ``host`` are required family keys; ``guest_size``
    (256), ``host_size`` (64), ``steps`` (4) and ``policy``
    (``"farthest"``) are optional.  ``seed`` may be present (the
    service's emulate schema fills it, so it is part of the job hash)
    but changes no result.  Returns :meth:`EmulationReport.as_dict`; the
    value is deterministic and safe to cache by content hash.
    """
    guest = family_spec(spec["guest"]).build_with_size(
        int(spec.get("guest_size", 256))
    )
    host = family_spec(spec["host"]).build_with_size(
        int(spec.get("host_size", 64))
    )
    report = Emulator(guest, host).run(
        int(spec.get("steps", 4)), policy=spec.get("policy", "farthest")
    )
    return report.as_dict()
