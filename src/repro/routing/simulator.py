"""The synchronous store-and-forward network simulator.

Model (matching the paper's network-machine assumptions):

* time advances in lock-step ticks;
* each *directed* link transmits at most one packet per tick;
* packets wait in per-link output queues;
* on a *weak* machine (``port_limit = 1``) each processor may drive at
  most one of its outgoing links per tick (busiest-queue-first);
* queue arbitration is a policy: ``"fifo"`` or ``"farthest"`` (greatest
  remaining distance first -- the classic priority that makes greedy
  routing on arrays/meshes optimal).

Packets carry an itinerary of waypoints (one for shortest-path routing,
two for Valiant routing); between waypoints they follow the
:class:`~repro.routing.tables.NextHopTables`.

Three engines implement the model and produce identical results
(delivery times, edge traffic, max queue) for the same inputs:

* ``engine="reference"`` -- the pure-Python tick loop below, kept as the
  executable specification;
* ``engine="fast"`` -- the batched vectorized kernel
  :func:`~repro.routing.engine.route_many`, ~10-100x faster than the
  reference on large batches; a solo run is a one-run batch;
* ``engine="compiled"`` -- the ctypes-built C kernel in
  :mod:`repro.routing.compiled`, ~2-10x faster again; raises
  :class:`~repro.routing.compiled.EngineUnavailableError` at
  construction when it cannot be built.

``engine="auto"`` (the default, :data:`DEFAULT_ENGINE`) means compiled
when a provider is ready, else fast.  It never raises on a missing
toolchain -- that is the graceful-fallback path.  The per-tick invariant
checks of ``validate=True`` live only in the Python engines, so ``auto``
resolves to fast under validation and ``compiled`` refuses it.

All engines scan occupied links in ascending ``(u, v)`` order each
tick; that canonical order (not accidental dict order) is part of the
spec, since it fixes FIFO insertion sequences and priority ties
downstream (see docs/PERFORMANCE.md for the engine-selection matrix).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from repro.obs import trace as obs
from repro.routing import compiled as compiled_backend
from repro.routing.engine import route_many
from repro.routing.engine_names import DEFAULT_ENGINE, ENGINES
from repro.routing.tables import NextHopTables
from repro.topologies.base import Machine

__all__ = ["DEFAULT_ENGINE", "ENGINES", "RoutingResult", "RoutingSimulator"]

_POLICIES = ("fifo", "farthest")


@dataclass
class RoutingResult:
    """Outcome of routing one batch of packets."""

    total_time: int
    num_packets: int
    delivery_times: np.ndarray
    edge_traffic: dict[tuple[int, int], int] = field(repr=False)
    max_queue: int = 0

    @property
    def delivery_rate(self) -> float:
        """Average packets delivered per tick: the operational bandwidth.

        An empty batch has rate 0.0; a batch delivered in zero ticks
        (self-messages only) has infinite rate.
        """
        if self.num_packets == 0:
            return 0.0
        if self.total_time == 0:
            return float("inf")
        return self.num_packets / self.total_time

    @property
    def max_edge_traffic(self) -> int:
        """Most packets carried by any single directed link (congestion)."""
        return max(self.edge_traffic.values()) if self.edge_traffic else 0

    @property
    def mean_latency(self) -> float:
        """Mean delivery time over packets."""
        return float(self.delivery_times.mean()) if self.num_packets else 0.0


class RoutingSimulator:
    """Synchronous SAF simulator over a :class:`Machine`."""

    def __init__(
        self,
        machine: Machine,
        policy: str = "farthest",
        validate: bool = False,
        engine: str = DEFAULT_ENGINE,
    ):
        if policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, got {policy!r}")
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
        if engine == "compiled":
            if validate:
                raise ValueError(
                    "validate=True needs a Python engine: the compiled "
                    "kernel has no per-tick invariant checks (use "
                    "engine='fast')"
                )
            # Fail fast with the probe's reason; ``auto`` is the
            # never-raises fallback route.
            compiled_backend.require_provider()
        self.machine = machine
        self.policy = policy
        self.engine = engine
        #: When True, the per-tick model invariants (one packet per
        #: directed link, weak-port limits) are asserted on every tick --
        #: a debugging/verification mode used by the test suite.
        self.validate = validate
        self.tables = NextHopTables.shared(machine)

    # -- public API ------------------------------------------------------------

    def route(
        self,
        itineraries: list[list[int]],
        max_ticks: int | None = None,
        release_times: list[int] | None = None,
    ) -> RoutingResult:
        """Deliver one packet per itinerary.

        Each itinerary is ``[src, waypoint..., dest]``; the packet visits
        the waypoints in order, following shortest paths in between.
        ``release_times`` (default: all 0) injects packet ``i`` at its
        source only once the clock reaches ``release_times[i]`` -- the
        first hop completes *at* that tick (releases 0 and 1 coincide,
        since the clock starts moving packets at tick 1).  This supports
        open-loop injection for throughput/latency sweeps.  Returns when
        every packet has been delivered; ``delivery_times`` are absolute
        clock values.  Both inputs may also be int64 arrays (an ``(m,
        w)`` itinerary array, a length-``m`` release vector): the fast
        and compiled engines route them without converting, and the
        results equal those of the same values given as lists.
        """
        npkts = len(itineraries)
        if npkts == 0:
            return RoutingResult(0, 0, np.zeros(0, dtype=np.int64), {})
        legs, release, max_ticks = self._prepare(
            itineraries, release_times, max_ticks
        )

        resolved = self._resolve_engine()
        with obs.span(
            f"route.{resolved}", policy=self.policy, packets=npkts
        ) as sp:
            skipped = None
            if resolved == "reference":
                # The spec runs on plain Python lists.
                if isinstance(legs, np.ndarray):
                    legs = legs.tolist()
                result = self._route_reference(legs, release.tolist(), max_ticks)
            else:
                if resolved == "fast":
                    [(total_time, delivered, edge_traffic, max_queue)] = (
                        route_many(
                            self.machine,
                            self.tables,
                            [(legs, release, max_ticks)],
                            self.policy,
                            validate=self.validate,
                        )
                    )
                else:
                    total_time, delivered, edge_traffic, max_queue, skipped = (
                        compiled_backend.route_compiled(
                            self.machine,
                            self.tables,
                            legs,
                            release,
                            max_ticks,
                            self.policy,
                        )
                    )
                result = RoutingResult(
                    total_time=total_time,
                    num_packets=npkts,
                    delivery_times=delivered,
                    edge_traffic=edge_traffic,
                    max_queue=max_queue,
                )
            sp.set(ticks=result.total_time, max_queue=result.max_queue)
            if skipped is not None:
                sp.set(ticks_skipped=skipped)
        obs.add("route.calls")
        obs.add("route.ticks", result.total_time)
        obs.add("route.packets", npkts)
        if skipped is not None:
            obs.add("route.ticks_skipped", skipped)
        return result

    def _resolve_engine(self) -> str:
        """The engine a call runs on: ``auto`` becomes ``compiled`` when
        a provider is ready and ``fast`` otherwise, so it never raises;
        under ``validate`` it is always ``fast``, which checks the
        invariants."""
        if self.engine != "auto":
            return self.engine
        if self.validate or not compiled_backend.get_provider():
            return "fast"
        return "compiled"

    def route_batch(
        self,
        itineraries_list: list[list[list[int]]],
        release_times_list: list[list[int] | None] | None = None,
        max_ticks: int | list[int | None] | None = None,
    ) -> list[RoutingResult]:
        """Route K independent runs; each result is bit-identical to
        :meth:`route` on that run alone.

        ``itineraries_list`` holds one itinerary batch per run, each a
        list of lists or an int64 ``(m, w)`` array as :meth:`route`
        takes it; ``release_times_list`` (optional) one release vector
        per run, a list or an int64 array (``None`` entries mean
        all-zero releases); ``max_ticks`` is a single budget shared by
        every run, a per-run list, or ``None`` for the per-run
        hop-derived default.  On the fast engine (and on
        ``auto`` when it resolves to fast) all runs share one
        vectorized tick loop (:func:`route_many`) keyed by per-run
        virtual edge ids, so the per-tick dispatch overhead amortizes
        across the batch; the reference and compiled engines route the
        runs sequentially through :meth:`route`, which keeps the per-run
        results trivially bit-identical.  Either way a run that would
        raise alone (exceeding its own ``max_ticks``) raises here too.
        """
        K = len(itineraries_list)
        if release_times_list is None:
            release_times_list = [None] * K
        if len(release_times_list) != K:
            raise ValueError(
                f"{len(release_times_list)} release vectors for {K} runs"
            )
        if isinstance(max_ticks, list):
            if len(max_ticks) != K:
                raise ValueError(f"{len(max_ticks)} max_ticks for {K} runs")
            budgets = max_ticks
        else:
            budgets = [max_ticks] * K
        if K == 0:
            return []

        total_packets = sum(len(its) for its in itineraries_list)
        resolved = self._resolve_engine()
        with obs.span(
            "route.batch",
            engine=resolved,
            policy=self.policy,
            runs=K,
            packets=total_packets,
        ) as sp:
            if resolved != "fast":
                results = [
                    self.route(its, max_ticks=mt, release_times=rel)
                    for its, rel, mt in zip(
                        itineraries_list, release_times_list, budgets
                    )
                ]
            else:
                # Prepare every run exactly as route() would, then hand
                # the non-empty ones to the shared kernel.
                prepared: list[tuple | None] = []
                for its, rel, mt in zip(
                    itineraries_list, release_times_list, budgets
                ):
                    if len(its) == 0:
                        prepared.append(None)
                    else:
                        prepared.append(self._prepare(its, rel, mt))
                live = [p for p in prepared if p is not None]
                raw = iter(
                    route_many(
                        self.machine,
                        self.tables,
                        live,
                        self.policy,
                        validate=self.validate,
                    )
                )
                results = []
                for p in prepared:
                    if p is None:
                        results.append(
                            RoutingResult(0, 0, np.zeros(0, dtype=np.int64), {})
                        )
                        continue
                    total_time, delivered, edge_traffic, max_queue = next(raw)
                    results.append(
                        RoutingResult(
                            total_time=total_time,
                            num_packets=len(p[0]),
                            delivery_times=delivered,
                            edge_traffic=edge_traffic,
                            max_queue=max_queue,
                        )
                    )
            sp.set(ticks=max((r.total_time for r in results), default=0))
        obs.add("route.batch.calls")
        obs.add("route.batch.runs", K)
        obs.add("route.batch.packets", total_packets)
        return results

    def _prepare(
        self,
        itineraries: list[list[int]] | np.ndarray,
        release_times: list[int] | np.ndarray | None,
        max_ticks: int | None,
    ) -> tuple[np.ndarray | list[list[int]], np.ndarray, int]:
        """Validate one run's inputs and collapse its itineraries.

        This is the shared front half of :meth:`route` and
        :meth:`route_batch`: same checks, same leg collapsing, same
        hop-derived default tick budget, so the two paths cannot drift.

        Itineraries are a list of lists or an int64 ``(m, w)`` array;
        release times a list, an int64 array or ``None``.  A rectangular
        batch (every itinerary the same width, the common src/dest and
        Valiant shapes) is kept as one int64 array, which an array input
        already is: a width-2 itinerary is collapse-invariant (``[s,
        s]`` collapses to ``[s]`` and pads straight back), and a wider
        one passes through whenever no consecutive waypoints repeat.
        Only a ragged batch is collapsed itinerary by itinerary into
        lists.  Every waypoint is checked against ``[0, n)`` with one
        array test before the tables or an engine index with it, and the
        release times come back as an int64 array, so the fast and
        compiled engines consume both without a per-packet conversion.
        """
        npkts = len(itineraries)
        n = self.machine.num_nodes
        legs = None
        try:
            arr = np.asarray(itineraries, dtype=np.int64)
        except (ValueError, TypeError):
            arr = None  # ragged or non-numeric: take the generic path
        if arr is not None and arr.ndim == 2 and arr.shape[1] >= 2:
            if arr.shape[1] == 2 or bool((arr[:, 1:] != arr[:, :-1]).all()):
                legs = nodes = arr
        if legs is None:
            # Consecutive duplicate waypoints are collapsed so waypoint
            # advancement in enqueue() is single-step (a repeated
            # waypoint could otherwise slip past the delivery check).
            if isinstance(itineraries, np.ndarray):
                itineraries = itineraries.tolist()
            legs = []
            for it in itineraries:
                if len(it) < 2:
                    raise ValueError(f"itinerary needs src and dest, got {it}")
                collapsed = [it[0]]
                for x in it[1:]:
                    if x != collapsed[-1]:
                        collapsed.append(x)
                if len(collapsed) == 1:
                    collapsed.append(collapsed[0])
                legs.append(collapsed)
            nodes = np.fromiter(chain.from_iterable(legs), dtype=np.int64)
        bad = (nodes < 0) | (nodes >= n)
        if bad.any():
            node = int(nodes.ravel()[bad.argmax()])
            raise ValueError(f"itinerary node {node} out of range for n={n}")

        if release_times is None:
            release = np.zeros(npkts, dtype=np.int64)
        else:
            if len(release_times) != npkts:
                raise ValueError(
                    f"{len(release_times)} release times for {npkts} packets"
                )
            release = np.asarray(release_times, dtype=np.int64)
            if release.ndim != 1:
                raise ValueError(
                    f"release times must be one number per packet, "
                    f"got shape {release.shape}"
                )
            negative = release < 0
            if negative.any():
                raise ValueError(
                    f"negative release time for packet {int(negative.argmax())}"
                )

        if self.engine != "reference":
            self.tables.ensure_dense()  # itinerary_hops must not fall back
        if max_ticks is None:
            # While any packet is waiting, at least one hop completes per
            # tick, so total itinerary hops plus the injection horizon
            # bounds the finish time; runaway runs now fail fast instead
            # of spinning for the old quadratic 4*npkts*n default.
            max_ticks = (
                self.tables.itinerary_hops(legs) + int(release.max()) + 64
            )
        return legs, release, max_ticks

    # -- the reference engine (executable specification) ----------------------

    def _route_reference(
        self,
        legs: list[list[int]],
        release_times: list[int],
        max_ticks: int,
    ) -> RoutingResult:
        npkts = len(legs)
        stage = [1] * npkts  # index of current target waypoint
        delivered = np.full(npkts, -1, dtype=np.int64)

        # queues[(u, v)] -> deque (fifo) or heap (farthest) of packet ids
        fifo = self.policy == "fifo"
        queues: dict[tuple[int, int], deque | list] = {}
        seq = 0  # tiebreaker for the heap
        max_queue = 0
        edge_traffic: dict[tuple[int, int], int] = {}
        port_limit = self.machine.port_limit

        def enqueue(u: int, pid: int) -> None:
            nonlocal seq, max_queue
            it = legs[pid]
            target = it[stage[pid]]
            while u == target:
                # Reached a waypoint; advance (possibly the final one).
                if stage[pid] == len(it) - 1:
                    return  # delivered; caller records the time
                stage[pid] += 1
                target = it[stage[pid]]
            v = self.tables.next_hop(u, target)
            q = queues.get((u, v))
            if q is None:
                q = deque() if fifo else []
                queues[(u, v)] = q
            if fifo:
                q.append(pid)
            else:
                # remaining distance to *final* destination drives priority
                rem = self.tables.distance(u, it[-1])
                heapq.heappush(q, (-rem, seq, pid))
                seq += 1
            max_queue = max(max_queue, len(q))

        pending: dict[int, list[int]] = {}
        undelivered = 0
        for pid, it in enumerate(legs):
            t_rel = release_times[pid]
            if len(it) == 2 and it[0] == it[-1]:
                # A true self-message (no intermediate waypoints) is
                # delivered instantly; a round trip like [s, w, s] travels.
                delivered[pid] = t_rel
                continue
            undelivered += 1
            if t_rel == 0:
                enqueue(it[0], pid)
            else:
                pending.setdefault(t_rel, []).append(pid)

        tracer = obs.get_tracer()  # hoisted: the loop body must stay lean
        tick = 0
        while undelivered > 0:
            tick += 1
            if tracer is not None and tick % 1024 == 0:
                tracer.event(
                    "route.progress",
                    engine="reference",
                    tick=tick,
                    undelivered=undelivered,
                    max_queue=max_queue,
                )
            for pid in pending.pop(tick, ()):  # newly injected packets
                enqueue(legs[pid][0], pid)
            if tick > max_ticks:
                raise RuntimeError(
                    f"routing did not finish in {max_ticks} ticks "
                    f"({undelivered} packets left)"
                )
            moves: list[tuple[int, int, int]] = []  # (pid, from, to)
            # Canonical deterministic scan order: ascending (u, v).
            if port_limit is None:
                candidates = sorted(queues.items())
            else:
                # Weak machine: each node picks its port_limit busiest queues.
                per_node: dict[int, list[tuple[int, tuple[int, int]]]] = {}
                for (u, v), q in queues.items():
                    per_node.setdefault(u, []).append((len(q), (u, v)))
                candidates = []
                for u in sorted(per_node):
                    qs = per_node[u]
                    qs.sort(key=lambda t: (-t[0], t[1]))
                    for _, key in qs[:port_limit]:
                        candidates.append((key, queues[key]))
                candidates.sort()

            for (u, v), q in candidates:
                if not q:
                    continue
                if fifo:
                    pid = q.popleft()
                else:
                    pid = heapq.heappop(q)[2]
                moves.append((pid, u, v))

            if self.validate:
                # Model invariants, checked per tick when enabled:
                # one packet per directed link, port limits respected.
                used_links = [(u, v) for _, u, v in moves]
                if len(used_links) != len(set(used_links)):
                    raise AssertionError(
                        f"tick {tick}: a directed link moved two packets"
                    )
                if port_limit is not None:
                    sends: dict[int, int] = {}
                    for _, u, _v in moves:
                        sends[u] = sends.get(u, 0) + 1
                    worst = max(sends.values(), default=0)
                    if worst > port_limit:
                        raise AssertionError(
                            f"tick {tick}: a weak node drove {worst} links"
                        )
            # Drop empty queues so the scan stays proportional to traffic.
            for key in [k for k, q in queues.items() if not q]:
                del queues[key]

            for pid, u, v in moves:
                edge_traffic[(u, v)] = edge_traffic.get((u, v), 0) + 1
                it = legs[pid]
                if v == it[-1] and stage[pid] == len(it) - 1:
                    delivered[pid] = tick
                    undelivered -= 1
                    continue
                if v == it[stage[pid]] and stage[pid] < len(it) - 1:
                    stage[pid] += 1
                if v == it[-1] and stage[pid] == len(it) - 1:
                    delivered[pid] = tick
                    undelivered -= 1
                    continue
                enqueue(v, pid)

        return RoutingResult(
            total_time=tick,
            num_packets=npkts,
            delivery_times=delivered,
            edge_traffic=edge_traffic,
            max_queue=max_queue,
        )
