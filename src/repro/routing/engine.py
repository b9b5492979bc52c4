"""The vectorized array-backed routing engine (``engine="fast"``).

Tick-for-tick equivalent to the reference Python loop in
:mod:`repro.routing.simulator` -- same delivery times, same per-link
traffic, same max queue depth -- but every per-tick step is a NumPy
operation over flat arrays instead of a Python scan over dicts:

* queue state is one array of packed ``(edge, priority, sequence)``
  int64 keys kept sorted, plus a per-link occupancy counter (no
  deques/heaps);
* queue arbitration (FIFO insertion order, or farthest-first with
  insertion-order ties) is the key order itself, so each link's winner
  is the front of its block in the sorted array;
* weak-machine port limits are resolved by ranking each node's occupied
  links by ``(-queue length, edge id)`` -- the same deterministic order
  the reference uses -- with one ``lexsort``;
* next hops and priorities come from the machine-shared dense
  :class:`~repro.routing.tables.NextHopTables` matrices, so a tick costs
  O(waiting packets) vector work, independent of how many Python-level
  queue objects the reference would have scanned.

The deterministic scan order every engine shares is ascending directed
edge id, i.e. lexicographic ``(u, v)``; see docs/PERFORMANCE.md for the
full determinism contract.

:func:`route_many` routes K *independent* runs over the same machine in
one instance of that tick loop by offsetting run ``k``'s directed edge
ids by ``k * num_edges``: queues of different runs can never collide,
so one sorted key array arbitrates every queue of every still-active
run at once, and the per-tick NumPy dispatch overhead amortizes across
the whole batch.  A solo run is a one-run batch.  Per-run enqueue
sequence counters, ``max_queue`` maxima, and ``max_ticks`` budgets keep
each run's observables bit-identical to routing it alone (see
docs/PERFORMANCE.md, "The batched multi-run kernel").
"""

from __future__ import annotations

import numpy as np

from repro.obs import trace as obs
from repro.routing.tables import NextHopTables
from repro.topologies.base import Machine

__all__ = ["KEY_BITS", "flatten_legs", "group_releases", "route_many"]

#: Bit budget of the packed ``(virtual edge, priority, sequence)``
#: waiting-set key: it must stay a non-negative int64 with headroom.
KEY_BITS = 62


def flatten_legs(
    legs: np.ndarray | list[list[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The shared flat itinerary layout every kernel consumes.

    Returns ``(leg_flat, leg_ptr, leg_len, fin)``: the concatenated
    waypoint stream, the packet offsets into it, per-packet waypoint
    counts, and each packet's final destination.  :func:`route_many`
    and the compiled kernel both index packet state through this one
    layout, so itinerary semantics cannot drift between them.
    """
    npkts = len(legs)
    # A rectangular batch arrives as one 2-D array (every shortest-path
    # batch) and is the layout already; ragged lists take the scan.
    if isinstance(legs, np.ndarray):
        as2d = np.asarray(legs, dtype=np.int64)
        width = as2d.shape[1]
        leg_flat = as2d.ravel()
        leg_len = np.full(npkts, width, dtype=np.int64)
        leg_ptr = np.arange(npkts + 1, dtype=np.int64) * width
        return leg_flat, leg_ptr, leg_len, as2d[:, -1].copy()
    leg_len = np.fromiter((len(leg) for leg in legs), dtype=np.int64, count=npkts)
    leg_ptr = np.zeros(npkts + 1, dtype=np.int64)
    np.cumsum(leg_len, out=leg_ptr[1:])
    leg_flat = np.fromiter(
        (x for leg in legs for x in leg), dtype=np.int64, count=int(leg_ptr[-1])
    )
    fin = leg_flat[leg_ptr[1:] - 1]
    return leg_flat, leg_ptr, leg_len, fin


def group_releases(
    travelling: np.ndarray, release: np.ndarray
) -> dict[int, np.ndarray]:
    """Group not-yet-released packets by release tick, pids ascending.

    The per-tick chunks replay the reference engine's injection order:
    within one tick, packets enter ascending by packet id.
    """
    later = travelling[release[travelling] > 0]
    pending: dict[int, np.ndarray] = {}
    if len(later):
        order = np.lexsort((later, release[later]))
        later = later[order]
        times, starts = np.unique(release[later], return_index=True)
        for t, chunk in zip(times, np.split(later, starts[1:])):
            pending[int(t)] = chunk
    return pending


def route_many(
    machine: Machine,
    tables: NextHopTables,
    runs: list[tuple[np.ndarray | list[list[int]], np.ndarray, int]],
    policy: str,
    validate: bool = False,
) -> list[tuple[int, np.ndarray, dict[tuple[int, int], int], int]]:
    """Route K independent runs over one shared tick loop.

    ``runs`` is a list of ``(legs, release_times, max_ticks)`` triples:
    collapsed itineraries (an int64 ``(m, w)`` array or a list of
    lists), per-packet release ticks and the tick budget of one run
    each.  The return value is one ``(total_time, delivery_times,
    edge_traffic, max_queue)`` tuple per run, bit-identical to what the
    reference engine produces for that run alone.
    ``RoutingSimulator.route`` calls this with a one-run batch.

    Batching works because runs never share queues: run ``k`` lives on
    virtual directed edges ``local_eid + k * num_edges`` (and, for weak
    machines, virtual nodes ``src + k * n``), so arbitration decisions
    can only involve packets of one run.  Determinism then reduces to
    per-run enqueue sequence counters: every bulk enqueue receives its
    packets in ascending virtual-edge order, which is run-major order,
    so each run's slice of the batch replays the exact enqueue sequence
    -- and therefore the exact FIFO / priority tie-break keys -- of its
    solo execution.

    The kernel maintains the waiting set as one array permanently
    sorted by a packed ``(virtual edge, priority, sequence)`` int64 key:
    each tick appends only the newly enqueued packets and restores order
    with a stable sort of the nearly-sorted whole (timsort makes that a
    cheap merge), and because the array is grouped by edge with group
    sizes equal to the queue-occupancy counters, every queue's winner is
    read off with one exclusive cumulative sum -- no per-tick lexsort of
    per-packet state at all.

    The key must fit :data:`KEY_BITS`.  When a batch's key does not,
    every run is routed as its own one-run batch (still bit-identical,
    just not batched); a single run whose key does not fit raises
    ``ValueError`` rather than wrapping.
    """
    K = len(runs)
    if K == 0:
        return []
    csr = machine.csr_adjacency()
    dense = tables.ensure_dense()
    dist, next_eid = dense.dist, dense.next_eid
    edge_src, edge_dst = csr.edge_src, csr.edge_dst
    num_edges = csr.num_directed_edges
    port_limit = machine.port_limit
    fifo = policy == "fifo"
    n = machine.num_nodes

    sizes = np.fromiter((len(r[0]) for r in runs), dtype=np.int64, count=K)
    run_ptr = np.zeros(K + 1, dtype=np.int64)
    np.cumsum(sizes, out=run_ptr[1:])
    npkts = int(run_ptr[-1])
    run_of = np.repeat(np.arange(K, dtype=np.int64), sizes)
    run_max_ticks = np.fromiter((r[2] for r in runs), dtype=np.int64, count=K)

    if npkts == 0:
        return [(0, np.zeros(0, dtype=np.int64), {}, 0)] * K
    # Flattened itineraries, run-major: packet ids ascend with run id.
    # Each run flattens on its own (an array run without a row loop)
    # and the layouts are concatenated.
    layouts = [flatten_legs(r[0]) for r in runs if len(r[0])]
    if len(layouts) == 1:
        leg_flat, leg_ptr, leg_len, fin = layouts[0]
    else:
        leg_flat, _, leg_len, fin = (np.concatenate(col) for col in zip(*layouts))
        leg_ptr = np.zeros(npkts + 1, dtype=np.int64)
        np.cumsum(leg_len, out=leg_ptr[1:])
    release = np.concatenate(
        [np.asarray(r[1], dtype=np.int64) for r in runs if len(r[0])]
    )

    # Pack (edge, priority, seq) into int64 bit fields.  A packet is
    # enqueued once per hop it traverses, so each run's shortest-path hop
    # count bounds its sequence counter exactly.
    inner = np.ones(len(leg_flat), dtype=bool)
    inner[leg_ptr[1:] - 1] = False
    ai = np.nonzero(inner)[0]
    pair_hops = dist[leg_flat[ai], leg_flat[ai + 1]].astype(np.int64)
    pair_run = run_of[np.repeat(np.arange(npkts, dtype=np.int64), leg_len - 1)]
    run_hops = np.bincount(pair_run, weights=pair_hops, minlength=K).astype(
        np.int64
    )
    total_hops = int(run_hops.sum())
    seq_bits = max(total_hops, 1).bit_length()
    prio_bits = 0 if fifo else max(n - 1, 1).bit_length()
    edge_shift = seq_bits + prio_bits
    key_bits = (K * num_edges - 1).bit_length() + edge_shift
    if key_bits > KEY_BITS:
        if K == 1:
            raise ValueError(
                f"run too large for the fast engine: its queue key needs "
                f"{key_bits} bits, more than {KEY_BITS}"
            )
        # Each run alone needs fewer edge and sequence bits.
        return [
            route_many(machine, tables, [r], policy, validate)[0] for r in runs
        ]
    seq_bits64 = np.int64(seq_bits)
    edge_shift64 = np.int64(edge_shift)
    n64 = np.int64(n)
    # Direct itineraries (every shortest-path / dimension-order batch)
    # have one leg and never advance stages: fin IS the next target.
    direct = bool((leg_len == 2).all())

    # Virtual-edge lookup tables: destination node, and (node, run) id.
    vdst = np.tile(edge_dst.astype(np.int64), K)
    vnode = np.tile(edge_src.astype(np.int64), K) + np.repeat(
        np.arange(K, dtype=np.int64) * n, num_edges
    )

    # The waiting set is represented by *keys alone*: the packet behind a
    # key is recovered through its sequence number, so the tick loop
    # never has to keep a pid array aligned with the sorted keys.  Run
    # counters start at disjoint offsets (the exclusive cumulative hop
    # sum), which keeps per-run numbering AND gives a global unique seq.
    seq_mask = np.int64((1 << seq_bits) - 1)
    seq_base = np.cumsum(run_hops) - run_hops
    pid_by_seq = np.empty(total_hops + 1, dtype=np.int64)

    # Pre-shifted per-(node, dest) lookup matrices collapse the per-hop
    # key arithmetic to one gather each.  Skipped on huge machines where
    # the int64 copies would dwarf the dense tables themselves.
    if n <= 2048:
        eid64 = (next_eid.astype(np.int64) << edge_shift64)
        prio64 = (
            None
            if fifo
            else (n64 - 1 - dist.astype(np.int64)) << seq_bits64
        )
    else:
        eid64 = prio64 = None

    stage = np.ones(npkts, dtype=np.int64)
    delivered = np.full(npkts, -1, dtype=np.int64)
    qlen = np.zeros(K * num_edges, dtype=np.int64)
    traffic = np.zeros(K * num_edges, dtype=np.int64)
    edge_base = run_of * num_edges
    qpeak = np.zeros(K * num_edges, dtype=np.int64)  # high-water marks
    run_seq = seq_base.copy()  # per-run enqueue sequence (offset blocks)
    run_total = np.zeros(K, dtype=np.int64)
    new_keys: list[np.ndarray] = []  # keys enqueued since the last merge

    def enqueue(pids: np.ndarray, at_nodes: np.ndarray) -> None:
        """Append packets (in ascending run-major order) to their queues."""
        if not len(pids):
            return
        if direct:
            target = fin[pids]
        else:
            target = leg_flat[leg_ptr[pids] + stage[pids]]
        # Per-run sequence numbers: `pids` ascend, so run ids are grouped
        # and non-decreasing (run j's group starts at the exclusive
        # cumulative count); number each group from its run's counter.
        r = run_of[pids]
        cnt = np.bincount(r, minlength=K)
        ex = np.cumsum(cnt) - cnt
        seqs = run_seq[r] + np.arange(len(r), dtype=np.int64) - ex[r]
        np.add(run_seq, cnt, out=run_seq)
        pid_by_seq[seqs] = pids
        if eid64 is not None:
            ekeys = eid64[at_nodes, target] + (edge_base[pids] << edge_shift64)
            eids = ekeys >> edge_shift64
            if fifo:
                keys = ekeys | seqs
            else:
                keys = ekeys | prio64[at_nodes, fin[pids]] | seqs
        else:
            eids = next_eid[at_nodes, target].astype(np.int64) + edge_base[pids]
            if fifo:
                keys = (eids << edge_shift64) | seqs
            else:
                # Ascending (n-1-rem, seq) == farthest-first with
                # insertion-order ties, as in the reference engine.
                rem = dist[at_nodes, fin[pids]].astype(np.int64)
                keys = (
                    (eids << edge_shift64)
                    | ((n64 - 1 - rem) << seq_bits64)
                    | seqs
                )
        # A queue's occupancy peaks right after a bulk add touching it,
        # so an element-wise running max over add events reproduces the
        # per-enqueue max the solo engine tracks.  Every enqueued packet
        # eventually crosses its link, so traffic is the enqueue count.
        bc = np.bincount(eids, minlength=len(qlen))
        np.add(qlen, bc, out=qlen)
        np.add(traffic, bc, out=traffic)
        np.maximum(qpeak, qlen, out=qpeak)
        new_keys.append(keys)

    # Injection bookkeeping: self-messages deliver instantly; release-0
    # packets enqueue before the clock starts; the rest wait in `pending`.
    is_self = (leg_len == 2) & (leg_flat[leg_ptr[:-1]] == fin)
    delivered[is_self] = release[is_self]
    travelling = np.nonzero(~is_self)[0]
    run_undeliv = np.bincount(run_of[travelling], minlength=K).astype(np.int64)
    undelivered = len(travelling)
    now = travelling[release[travelling] == 0]
    if len(now):
        enqueue(now, leg_flat[leg_ptr[now]])
    pending = group_releases(travelling, release)

    tracer = obs.get_tracer()  # hoisted: the loop body must stay lean
    budget_floor = int(run_max_ticks.min())
    okey = np.zeros(0, dtype=np.int64)  # waiting keys, sorted throughout
    tick = 0
    while undelivered > 0:
        tick += 1
        if tracer is not None and tick % 1024 == 0:
            tracer.event(
                "route.progress",
                engine="fast",
                tick=tick,
                undelivered=undelivered,
                active_runs=int((run_undeliv > 0).sum()),
            )
        injected = pending.pop(tick, None)
        if injected is not None:
            enqueue(injected, leg_flat[leg_ptr[injected]])
        if tick > budget_floor:  # cheap python guard; arrays only if near
            over = (tick > run_max_ticks) & (run_undeliv > 0)
            if over.any():
                k = int(np.nonzero(over)[0][0])
                raise RuntimeError(
                    f"routing did not finish in {int(run_max_ticks[k])} "
                    f"ticks ({int(run_undeliv[k])} packets left)"
                )

        # Merge the tick's new packets into the maintained sorted order.
        # Keys are unique, and a stable sort of an almost-sorted array is
        # near-linear (timsort merges the appended run).
        if new_keys:
            candk = np.concatenate([okey, *new_keys])
            new_keys.clear()
            okey = candk[np.argsort(candk, kind="stable")]
        if not len(okey):
            continue  # everything in flight is awaiting injection

        # Winner of each occupied virtual link = front of its block: the
        # key array is grouped by edge with block sizes qlen[occupied],
        # so block fronts are an exclusive cumulative sum away; the low
        # key bits then name the winning packet via its run's seq table.
        occ = np.flatnonzero(qlen)
        counts = qlen[occ]
        fronts = np.cumsum(counts) - counts
        medges = occ
        wkeys = okey[fronts]
        movers = pid_by_seq[wkeys & seq_mask]

        if port_limit is not None:
            # Weak machine: each *virtual* node (node, run) serves its
            # port_limit busiest links, ties by edge id -- runs can never
            # share a virtual node, so this matches the solo ranking.
            # Losing queues keep their front packet in place.
            vnodes = vnode[medges]
            rank_order = np.lexsort((medges, -counts, vnodes))
            nodes_sorted = vnodes[rank_order]
            group_start = np.empty(len(nodes_sorted), dtype=bool)
            group_start[0] = True
            group_start[1:] = nodes_sorted[1:] != nodes_sorted[:-1]
            within = np.arange(len(nodes_sorted)) - np.maximum.accumulate(
                np.where(group_start, np.arange(len(nodes_sorted)), 0)
            )
            keep = np.zeros(len(medges), dtype=bool)
            keep[rank_order[within < port_limit]] = True
            movers, medges, fronts = movers[keep], medges[keep], fronts[keep]

        if validate:
            if len(np.unique(medges)) != len(medges):
                raise AssertionError(
                    f"tick {tick}: a directed link moved two packets"
                )
            if port_limit is not None and len(medges):
                sends = np.bincount(vnode[medges], minlength=K * n)
                if sends.max() > port_limit:
                    raise AssertionError(
                        f"tick {tick}: a weak node drove {sends.max()} links"
                    )

        qlen[medges] -= 1
        stay = np.ones(len(okey), dtype=bool)
        stay[fronts] = False
        okey = okey[stay]  # winners leave; the rest keep their order

        # Arrivals, in ascending virtual-edge order == run-major order ==
        # each run's solo ascending edge-id scan order.
        arrive = vdst[medges]
        done = arrive == fin[movers]
        if not direct:
            at_last = stage[movers] == leg_len[movers] - 1
            done &= at_last
            target = leg_flat[leg_ptr[movers] + stage[movers]]
            advance = (arrive == target) & ~done
            if np.count_nonzero(advance):
                adv_p = movers[advance]
                stage[adv_p] += 1
                done[advance] = (arrive[advance] == fin[adv_p]) & (
                    stage[adv_p] == leg_len[adv_p] - 1
                )
        ndone = int(np.count_nonzero(done))
        if ndone:
            done_p = movers[done]
            delivered[done_p] = tick
            dec = np.bincount(run_of[done_p], minlength=K)
            run_undeliv -= dec
            undelivered -= ndone
            finished = (dec > 0) & (run_undeliv == 0)
            run_total[finished] = tick  # a solo run's loop ends here
        if ndone < len(done):
            enqueue(movers[~done], arrive[~done])

    results = []
    for k in range(K):
        lo, hi = int(run_ptr[k]), int(run_ptr[k + 1])
        tr = traffic[k * num_edges : (k + 1) * num_edges]
        nz = np.flatnonzero(tr)
        edge_traffic = dict(
            zip(
                zip(edge_src[nz].tolist(), edge_dst[nz].tolist()),
                tr[nz].tolist(),
            )
        )
        results.append(
            (
                int(run_total[k]),
                delivered[lo:hi].copy(),
                edge_traffic,
                int(qpeak[k * num_edges : (k + 1) * num_edges].max()),
            )
        )
    return results
