/* The routing tick kernel behind engine="compiled", and the dense
 * next-hop table builder behind NextHopTables.ensure_dense.
 *
 * repro.routing.compiled builds this file at first use with the system
 * C compiler (`cc -O2 -shared -fPIC`), caches the shared object on disk
 * keyed by a hash of this source, and calls it through ctypes -- no
 * Python.h, no build-time dependency beyond a C toolchain.
 *
 * Data layout (caller-allocated; int64 except the two tables):
 * itineraries use the flat layout of repro.routing.engine.flatten_legs
 * (waypoint stream leg_flat, per-packet offsets leg_ptr, final
 * destinations fin); the per-(node, dest) dist/next_eid matrices are the
 * dense int32 tables of repro.routing.tables, row-major; each directed
 * edge's queue is an intrusive linked list threaded through qnext
 * (packet id -> next packet id) with head and tail tables qhead/qtail
 * and occupancy qlen.  The queue winner is the packet with the least
 * arbitration key: its enqueue sequence number seq under FIFO, and
 * pkey = ((n << 32) - (remaining << 32)) | seq under farthest-first.
 * Packets append at the tail and seq only grows, so every list is in
 * seq order: a FIFO pop takes the head in O(1), and a farthest-first
 * pop scans its queue's list for the least pkey.
 * When nothing is queued the clock jumps to the next release tick; the
 * jumped ticks are reported as ticks_skipped.
 *
 * Results land in out[5] = {status, total_time, max_queue,
 * ticks_skipped, undelivered_left}; status 1 means the tick budget was
 * exceeded with packets still undelivered (KERNEL_STATUS_* in
 * compiled.py).
 */

#include <stdint.h>

#define STATUS_OK 0
#define STATUS_OVERRUN 1

/* Append pid at the tail of edge eid's queue; returns the new length. */
static inline int64_t push(
    int64_t *qnext, int64_t *qhead, int64_t *qtail, int64_t *qlen,
    int64_t eid, int64_t pid)
{
    qnext[pid] = -1;
    if (qhead[eid] == -1)
        qhead[eid] = pid;
    else
        qnext[qtail[eid]] = pid;
    qtail[eid] = pid;
    return ++qlen[eid];
}

/* Unlink and return the minimum-key packet of edge eid's (non-empty)
 * queue: the head under FIFO, found by a scan under farthest-first. */
static inline int64_t pop(
    const int64_t *pkey, int64_t *qnext, int64_t *qhead, int64_t *qtail,
    int64_t *qlen, int64_t eid, int64_t fifo)
{
    int64_t best = qhead[eid];
    int64_t bestprev = -1;
    if (fifo == 0) {
        int64_t prev = best;
        for (int64_t cur = qnext[best]; cur != -1; cur = qnext[cur]) {
            if (pkey[cur] < pkey[best]) {
                best = cur;
                bestprev = prev;
            }
            prev = cur;
        }
    }
    if (bestprev == -1)
        qhead[eid] = qnext[best];
    else
        qnext[bestprev] = qnext[best];
    if (qtail[eid] == best)
        qtail[eid] = bestprev;
    qnext[best] = -1;
    qlen[eid] -= 1;
    return best;
}

void route_kernel(
    const int64_t *leg_flat,
    const int64_t *leg_ptr,
    const int64_t *fin,
    int64_t *stage,
    const int32_t *dist,
    const int32_t *next_eid,
    const int64_t *edge_dst,
    const int64_t *indptr,
    const int64_t *inj_pids,
    const int64_t *inj_times,
    int64_t num_inj,
    int64_t *pkey,
    int64_t *qnext,
    int64_t *qhead,
    int64_t *qtail,
    int64_t *qlen,
    int64_t *mpid,
    int64_t *meid,
    int64_t *selbuf,
    int64_t *delivered,
    int64_t *traffic,
    int64_t n,
    int64_t num_edges,
    int64_t max_ticks,
    int64_t fifo,
    int64_t port_limit,
    int64_t undelivered,
    int64_t *out)
{
    const int64_t prio_base = n << 32;
    int64_t seq = 0;
    int64_t iptr = 0;
    int64_t tick = 0;
    int64_t waiting = 0;
    int64_t max_queue = 0;
    int64_t skipped = 0;

    /* Release-0 packets enqueue before the clock starts. */
    while (iptr < num_inj && inj_times[iptr] == 0) {
        int64_t pid = inj_pids[iptr];
        int64_t u = leg_flat[leg_ptr[pid]];
        int64_t target = leg_flat[leg_ptr[pid] + stage[pid]];
        int64_t eid = next_eid[u * n + target];
        if (fifo == 0)
            pkey[pid] = (prio_base - ((int64_t)dist[u * n + fin[pid]] << 32)) | seq;
        seq += 1;
        int64_t len = push(qnext, qhead, qtail, qlen, eid, pid);
        waiting += 1;
        if (len > max_queue)
            max_queue = len;
        iptr += 1;
    }

    while (undelivered > 0) {
        if (waiting == 0) {
            /* Everything in flight awaits injection: jump the clock to
             * the next release tick (or just past the budget). */
            int64_t jump = inj_times[iptr];
            if (jump > max_ticks)
                jump = max_ticks + 1;
            if (jump > tick + 1) {
                skipped += jump - tick - 1;
                tick = jump - 1;
            }
        }
        tick += 1;
        while (iptr < num_inj && inj_times[iptr] == tick) {
            int64_t pid = inj_pids[iptr];
            int64_t u = leg_flat[leg_ptr[pid]];
            int64_t target = leg_flat[leg_ptr[pid] + stage[pid]];
            int64_t eid = next_eid[u * n + target];
            if (fifo == 0)
                pkey[pid] = (prio_base - ((int64_t)dist[u * n + fin[pid]] << 32)) | seq;
            seq += 1;
            int64_t len = push(qnext, qhead, qtail, qlen, eid, pid);
            waiting += 1;
            if (len > max_queue)
                max_queue = len;
            iptr += 1;
        }
        if (tick > max_ticks) {
            out[0] = STATUS_OVERRUN;
            out[1] = tick;
            out[2] = max_queue;
            out[3] = skipped;
            out[4] = undelivered;
            return;
        }

        /* -- winner selection, ascending edge id == ascending (u, v) -- */
        int64_t nmoves = 0;
        if (port_limit <= 0) {
            for (int64_t eid = 0; eid < num_edges; eid++) {
                if (qlen[eid] == 0)
                    continue;
                mpid[nmoves] = pop(pkey, qnext, qhead, qtail, qlen, eid, fifo);
                meid[nmoves] = eid;
                nmoves += 1;
            }
        } else {
            /* Weak machine: each node serves its port_limit busiest
             * out-links (ties by edge id).  A node's out-edges are a
             * contiguous edge-id block, so scan nodes in order and pick
             * within the block. */
            for (int64_t u = 0; u < n; u++) {
                int64_t lo = indptr[u];
                int64_t hi = indptr[u + 1];
                int64_t npick = 0;
                while (npick < port_limit) {
                    int64_t best_eid = -1;
                    int64_t best_len = 0;
                    for (int64_t eid = lo; eid < hi; eid++) {
                        if (qlen[eid] <= best_len)
                            continue;
                        int taken = 0;
                        for (int64_t j = 0; j < npick; j++) {
                            if (selbuf[j] == eid) {
                                taken = 1;
                                break;
                            }
                        }
                        if (!taken) {
                            best_eid = eid;
                            best_len = qlen[eid];
                        }
                    }
                    if (best_eid == -1)
                        break;
                    selbuf[npick] = best_eid;
                    npick += 1;
                }
                /* Emit this node's picks in ascending edge-id order. */
                for (int64_t eid = lo; eid < hi; eid++) {
                    int picked = 0;
                    for (int64_t j = 0; j < npick; j++) {
                        if (selbuf[j] == eid) {
                            picked = 1;
                            break;
                        }
                    }
                    if (!picked)
                        continue;
                    mpid[nmoves] = pop(pkey, qnext, qhead, qtail, qlen, eid, fifo);
                    meid[nmoves] = eid;
                    nmoves += 1;
                }
            }
        }
        waiting -= nmoves;

        /* -- arrivals, in the same ascending edge-id order ------------ */
        for (int64_t i = 0; i < nmoves; i++) {
            int64_t eid = meid[i];
            int64_t pid = mpid[i];
            traffic[eid] += 1;
            int64_t v = edge_dst[eid];
            int64_t lp = leg_ptr[pid];
            int64_t last = leg_ptr[pid + 1] - 1 - lp;
            if (v == fin[pid] && stage[pid] == last) {
                delivered[pid] = tick;
                undelivered -= 1;
                continue;
            }
            if (v == leg_flat[lp + stage[pid]] && stage[pid] < last)
                stage[pid] += 1;
            if (v == fin[pid] && stage[pid] == last) {
                delivered[pid] = tick;
                undelivered -= 1;
                continue;
            }
            int64_t target = leg_flat[lp + stage[pid]];
            int64_t eid2 = next_eid[v * n + target];
            if (fifo == 0)
                pkey[pid] = (prio_base - ((int64_t)dist[v * n + fin[pid]] << 32)) | seq;
            seq += 1;
            int64_t len = push(qnext, qhead, qtail, qlen, eid2, pid);
            waiting += 1;
            if (len > max_queue)
                max_queue = len;
        }
    }

    out[0] = STATUS_OK;
    out[1] = tick;
    out[2] = max_queue;
    out[3] = skipped;
    out[4] = 0;
}


/* All-destinations next-hop tables and complete-traffic link loads.
 *
 * One BFS per destination d over the CSR adjacency (indptr, indices;
 * CSR slot e is directed edge e) fills column d of the row-major
 * [node, dest] int32 tables dist, next_hop and next_eid.  The tie-break
 * is the one repro.routing.tables specifies: among v's CSR slots whose
 * neighbour is one step closer to d, take the (h mod count)-th, with
 * h = (v * 2654435761 + d * 1099087573) & 0x7FFFFFFF in int64.
 *
 * Walking the BFS queue backwards (deepest first), each node hands its
 * subtree size to its next hop and adds it to the link it forwards on,
 * so loads[e] (zeroed by the caller) ends as the number of ordered
 * pairs (s, d) whose next-hop path crosses directed edge e.
 *
 * queue, level, via and size are n-long scratch.  Returns 0, or 1 when
 * some node cannot reach d (a disconnected graph).
 */
int64_t dense_tables(
    const int64_t *indptr,
    const int64_t *indices,
    int64_t n,
    int32_t *dist,
    int32_t *next_hop,
    int32_t *next_eid,
    int64_t *loads,
    int64_t *queue,
    int64_t *level,
    int64_t *via,
    int64_t *size)
{
    for (int64_t d = 0; d < n; d++) {
        for (int64_t v = 0; v < n; v++)
            level[v] = -1;
        level[d] = 0;
        queue[0] = d;
        int64_t tail = 1;
        for (int64_t head = 0; head < tail; head++) {
            int64_t v = queue[head];
            for (int64_t e = indptr[v]; e < indptr[v + 1]; e++) {
                int64_t w = indices[e];
                if (level[w] < 0) {
                    level[w] = level[v] + 1;
                    queue[tail++] = w;
                }
            }
        }
        if (tail < n)
            return 1;

        for (int64_t v = 0; v < n; v++) {
            int64_t slot = v * n + d;
            dist[slot] = (int32_t)level[v];
            if (v == d) {
                next_hop[slot] = (int32_t)d;
                next_eid[slot] = -1;
                continue;
            }
            int64_t closer = level[v] - 1;
            int64_t count = 0;
            for (int64_t e = indptr[v]; e < indptr[v + 1]; e++)
                count += level[indices[e]] == closer;
            if (count == 0)
                return 1; /* only a directed graph gets here */
            int64_t h = (v * 2654435761LL + d * 1099087573LL) & 0x7FFFFFFF;
            int64_t rank = h % count;
            int64_t e = indptr[v];
            for (;; e++) {
                if (level[indices[e]] == closer && rank-- == 0)
                    break;
            }
            next_hop[slot] = (int32_t)indices[e];
            next_eid[slot] = (int32_t)e;
            via[v] = e;
        }

        for (int64_t v = 0; v < n; v++)
            size[v] = 1;
        for (int64_t i = n - 1; i > 0; i--) {
            int64_t v = queue[i];
            int64_t e = via[v];
            size[indices[e]] += size[v];
            loads[e] += size[v];
        }
    }
    return 0;
}
