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
from repro.routing.engine import Run, route_many
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
        itineraries: list[list[int]] | np.ndarray,
        max_ticks: int | None = None,
        release_times: list[int] | np.ndarray | None = None,
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
        clock values.  Itineraries may be lists, tuples or an int64
        ``(m, w)`` array, and release times a list or an int64 vector;
        every form gives the same result.  A solo run is a one-run
        batch: it takes the same engine dispatch as :meth:`route_batch`.
        """
        run = self._prepare(itineraries, release_times, max_ticks)
        [result] = self._dispatch([run])
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
        itineraries_list: list[list[list[int]] | np.ndarray],
        release_times_list: list[list[int] | np.ndarray | None] | None = None,
        max_ticks: int | list[int | None] | None = None,
    ) -> list[RoutingResult]:
        """Route K independent runs; each result is bit-identical to
        :meth:`route` on that run alone.

        ``itineraries_list`` holds one itinerary batch per run, in any
        form :meth:`route` takes; ``release_times_list`` (optional) one
        release vector per run (``None`` entries mean all-zero
        releases); ``max_ticks`` is a single budget shared by every run,
        a per-run list, or ``None`` for the per-run hop-derived default.
        Every run is checked as :meth:`route` checks it, and a run that
        would raise alone (exceeding its own ``max_ticks``) raises here
        too.  On the fast engine (and on ``auto`` when it resolves to
        fast) all runs share one vectorized tick loop
        (:func:`route_many`) keyed by per-run virtual edge ids, so the
        per-tick dispatch overhead amortizes across the batch; the
        reference and compiled engines route the runs one by one.
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
        with obs.span(
            "route.batch",
            engine=self._resolve_engine(),
            policy=self.policy,
            runs=K,
            packets=total_packets,
        ) as sp:
            results = self._dispatch(
                [
                    self._prepare(its, rel, mt)
                    for its, rel, mt in zip(
                        itineraries_list, release_times_list, budgets
                    )
                ]
            )
            sp.set(ticks=max(r.total_time for r in results))
        obs.add("route.batch.calls")
        obs.add("route.batch.runs", K)
        obs.add("route.batch.packets", total_packets)
        return results

    def _dispatch(self, runs: list[Run]) -> list[RoutingResult]:
        """Route prepared runs on the resolved engine: the one engine
        dispatch behind :meth:`route` and :meth:`route_batch`.

        The fast engine routes every non-empty run in one shared tick
        loop; the compiled and reference engines take one kernel call
        per run.  Each kernel call is one ``route.<engine>`` span, and
        the ``route.*`` counters count the runs it routed.  An empty run
        calls no kernel.
        """
        resolved = self._resolve_engine()
        results = [
            RoutingResult(0, 0, np.zeros(0, dtype=np.int64), {}) for _ in runs
        ]
        live = [k for k, run in enumerate(runs) if run.num_packets]
        calls = [live] if resolved == "fast" and live else [[k] for k in live]
        for call in calls:
            batch = [runs[k] for k in call]
            packets = sum(run.num_packets for run in batch)
            skipped = None
            with obs.span(
                f"route.{resolved}", policy=self.policy, packets=packets
            ) as sp:
                if resolved == "fast":
                    raw = route_many(
                        self.machine,
                        self.tables,
                        batch,
                        self.policy,
                        validate=self.validate,
                    )
                    out = [self._result(*r) for r in raw]
                elif resolved == "compiled":
                    *raw, skipped = compiled_backend.route_compiled(
                        self.machine, self.tables, batch[0], self.policy
                    )
                    out = [self._result(*raw)]
                else:
                    out = [self._route_reference(batch[0])]
                sp.set(
                    ticks=max(r.total_time for r in out),
                    max_queue=max(r.max_queue for r in out),
                )
                if skipped is not None:
                    sp.set(ticks_skipped=skipped)
            for k, result in zip(call, out):
                results[k] = result
            obs.add("route.calls", len(out))
            obs.add("route.ticks", sum(r.total_time for r in out))
            obs.add("route.packets", packets)
            if skipped is not None:
                obs.add("route.ticks_skipped", skipped)
        return results

    def _result(
        self,
        total_time: int,
        delivered: np.ndarray,
        traffic: np.ndarray,
        max_queue: int,
    ) -> RoutingResult:
        """A kernel's output for one run, its per-edge-id ``traffic``
        keyed by directed link ``(u, v)`` as the reference engine keys
        it."""
        csr = self.machine.csr_adjacency()
        nz = np.flatnonzero(traffic)
        edge_traffic = dict(
            zip(
                zip(csr.edge_src[nz].tolist(), csr.edge_dst[nz].tolist()),
                traffic[nz].tolist(),
            )
        )
        return RoutingResult(
            total_time=total_time,
            num_packets=len(delivered),
            delivery_times=delivered,
            edge_traffic=edge_traffic,
            max_queue=max_queue,
        )

    def _prepare(
        self,
        itineraries: list[list[int]] | np.ndarray,
        release_times: list[int] | np.ndarray | None,
        max_ticks: int | None,
    ) -> Run:
        """Check one run's inputs and lay them out as a :class:`Run`.

        Every input form -- a sequence of lists, tuples or arrays, or an
        int64 ``(m, w)`` array -- becomes the one flat int64 layout, and
        every waypoint is checked against ``[0, n)`` with one array test
        before the tables or an engine index with it.  Consecutive
        duplicate waypoints, found with one comparison over the flat
        stream, are collapsed, so waypoint advancement is single-step (a
        repeated waypoint could otherwise slip past the delivery check);
        an itinerary left with one node becomes the self-message ``[s,
        s]``.  Empty runs get the same checks.
        """
        n = self.machine.num_nodes
        if isinstance(itineraries, np.ndarray) and itineraries.ndim == 2:
            npkts, width = itineraries.shape
            flat = np.asarray(itineraries, dtype=np.int64).ravel()
            ptr = np.arange(npkts + 1, dtype=np.int64) * width
        else:
            npkts = len(itineraries)
            ptr = np.zeros(npkts + 1, dtype=np.int64)
            np.cumsum(
                np.fromiter(map(len, itineraries), dtype=np.int64, count=npkts),
                out=ptr[1:],
            )
            flat = np.fromiter(
                chain.from_iterable(itineraries), dtype=np.int64, count=int(ptr[-1])
            )
        short = np.diff(ptr) < 2
        if short.any():
            it = itineraries[int(short.argmax())]
            if isinstance(it, np.ndarray):
                it = it.tolist()
            raise ValueError(f"itinerary needs src and dest, got {it}")
        bad = (flat < 0) | (flat >= n)
        if bad.any():
            node = int(flat[bad.argmax()])
            raise ValueError(f"itinerary node {node} out of range for n={n}")
        # Repeats: positions equal to the waypoint before them, except a
        # packet's source (which follows the previous packet's dest).
        repeats = np.flatnonzero(flat[1:] == flat[:-1]) + 1
        repeats = repeats[ptr[np.searchsorted(ptr, repeats)] != repeats]
        if len(repeats):
            keep = np.ones(len(flat), dtype=bool)
            keep[repeats] = False
            kept = np.zeros(len(flat) + 1, dtype=np.int64)
            np.cumsum(keep, out=kept[1:])
            lens = kept[ptr[1:]] - kept[ptr[:-1]]
            lone = lens == 1
            keep[ptr[1:][lone] - 1] = True  # [s, s, ...] -> [s, s]
            lens[lone] = 2
            flat = flat[keep]
            ptr = np.zeros(npkts + 1, dtype=np.int64)
            np.cumsum(lens, out=ptr[1:])

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
                self.tables.itinerary_hops(flat, ptr)
                + int(release.max(initial=0))
                + 64
            )
        return Run(flat, ptr, release, max_ticks)

    # -- the reference engine (executable specification) ----------------------

    def _route_reference(self, run: Run) -> RoutingResult:
        # The spec runs on plain Python lists.
        flat, ptr = run.leg_flat.tolist(), run.leg_ptr.tolist()
        legs = [flat[a:b] for a, b in zip(ptr, ptr[1:])]
        release_times = run.release.tolist()
        max_ticks = run.max_ticks
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
