"""The compiled routing engine (``engine="compiled"``) and table builder.

``routing/_kernel.c`` holds the whole tick loop in C, the one-pass
builder of the dense ``(dist, next_eid)`` next-hop tables that
:meth:`repro.routing.tables.NextHopTables.ensure_dense` uses whenever
this provider works, and the per-root sweeps of
:func:`repro.embedding.lower_bounds.cut_profile`.  At first use it is
built with the system C compiler into a shared object cached on disk
keyed by a hash of the source, warmed on a two-node toy route and a
3-cube's tables and cut sweeps, and called through :mod:`ctypes` -- no
``Python.h``, no build dependency beyond ``cc``.

Setting the ``REPRO_COMPILED`` environment variable to ``off`` hides
the provider, so machines that have a toolchain can exercise the
no-toolchain path (CI and the tests do).  :func:`capability` probes
without raising; asking for the engine when no provider works raises
:class:`EngineUnavailableError`, which ``engine="auto"`` and the CLI
turn into a silent fallback and a clean one-line error respectively.

The wrapper stays in Python: it takes one run in the flat layout the
fast engine also reads (:class:`repro.routing.engine.Run`), adds the
kernel's scratch arrays, and calls the kernel once.  No tracer hooks
cross into the compiled region -- ``route.*`` spans and counters are
emitted by the simulator around this call, so observability stays on
the hoisted no-op path at zero per-tick cost.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Callable, NamedTuple

import numpy as np

from repro.routing.engine import Run, start_run
from repro.routing.tables import NextHopTables
from repro.topologies.base import CSRAdjacency, Machine
from repro.util.validation import UnavailableError

__all__ = [
    "KERNEL_STATUS_OK",
    "KERNEL_STATUS_OVERRUN",
    "EngineUnavailableError",
    "capability",
    "get_provider",
    "require_provider",
    "route_compiled",
]

#: Kernel exit statuses, as ``_kernel.c`` reports them in ``out[0]``.
KERNEL_STATUS_OK = 0
KERNEL_STATUS_OVERRUN = 1  # hit max_ticks with packets still undelivered


class EngineUnavailableError(UnavailableError):
    """``engine="compiled"`` was requested but no provider works."""

    code = "engine_unavailable"


# -- provider discovery --------------------------------------------------------


class Provider(NamedTuple):
    """One working build of ``_kernel.c``.

    ``route`` takes the tick kernel's arrays and scalars (see _kernel.c)
    and returns its 5-tuple ``(status, total_time, max_queue,
    ticks_skipped, undelivered_left)``.  ``tables`` takes a
    :class:`~repro.topologies.base.CSRAdjacency` and returns ``(dist,
    next_eid, loads)``: the two ``[node, dest]`` int32 tables of
    :class:`~repro.routing.tables.DenseTables` and the int64
    complete-traffic load of each directed edge.
    ``cuts`` takes a CSR and an int64 array of roots and returns the
    per-root part of a cut profile, ``(min_cut, witness)``: int64 and
    int32 arrays of length n + 1 (entries 0 and n untouched: int64 max
    and -1).
    """

    name: str
    route: Callable
    tables: Callable
    cuts: Callable


_cache: dict[str, Provider | None] = {}
_reasons: dict[str, str] = {}


def _mode() -> str:
    """``off`` when ``REPRO_COMPILED=off`` hides the provider, else ``auto``."""
    value = os.environ.get("REPRO_COMPILED", "").strip().lower()
    return "off" if value == "off" else "auto"


def _warmup(runner, tables, cuts) -> None:
    """Route one packet across a two-node machine, exercising the
    kernel end to end, then check the table builder and the cut sweeps
    on a 3-cube."""
    i32, i64 = np.int32, np.int64
    out = runner(
        np.array([0, 1], dtype=i64),  # leg_flat
        np.array([0, 2], dtype=i64),  # leg_ptr
        np.array([1], dtype=i64),  # fin
        np.array([1], dtype=i64),  # stage
        np.array([0, 1, 1, 0], dtype=i32),  # dist (2x2)
        np.array([0, 0, 1, 0], dtype=i32),  # next_eid (2x2)
        np.array([1, 0], dtype=i64),  # edge_dst
        np.array([0, 1, 2], dtype=i64),  # indptr
        np.array([0], dtype=i64),  # inj_pids
        np.array([0], dtype=i64),  # inj_times
        np.zeros(1, dtype=i64),  # pkey
        np.full(1, -1, dtype=i64),  # qnext
        np.full(2, -1, dtype=i64),  # qhead
        np.full(2, -1, dtype=i64),  # qtail
        np.zeros(2, dtype=i64),  # qlen
        np.zeros(2, dtype=i64),  # mpid
        np.zeros(2, dtype=i64),  # meid
        np.zeros(1, dtype=i64),  # selbuf
        np.full(1, -1, dtype=i64),  # delivered
        np.zeros(2, dtype=i64),  # traffic
        2,  # n
        2,  # num_edges
        8,  # max_ticks
        0,  # fifo
        0,  # port_limit
        1,  # undelivered
    )
    if tuple(int(x) for x in out) != (0, 1, 1, 0, 0):
        raise AssertionError(f"kernel warmup produced {out!r}")

    # A 3-cube, whose antipodal pairs tie three ways and the rest of the
    # pairs two ways, so the hash is checked modulo both counts.
    nbrs = [sorted(v ^ bit for bit in (1, 2, 4)) for v in range(8)]
    cube = CSRAdjacency(
        np.arange(0, 25, 3, dtype=i32),
        np.array(sum(nbrs, []), dtype=i32),
        np.repeat(np.arange(8, dtype=i32), 3),
    )
    built = [a.ravel().tolist() for a in tables(cube)]
    expected = [  # the NumPy build's dist, next_eid and loads
        [
            0, 1, 1, 2, 1, 2, 2, 3, 1, 0, 2, 1, 2, 1, 3, 2,
            1, 2, 0, 1, 2, 3, 1, 2, 2, 1, 1, 0, 3, 2, 2, 1,
            1, 2, 2, 3, 0, 1, 1, 2, 2, 1, 3, 2, 1, 0, 2, 1,
            2, 3, 1, 2, 1, 2, 0, 1, 3, 2, 2, 1, 2, 1, 1, 0,
        ],
        [
            -1, 0, 1, 1, 2, 2, 1, 1, 3, -1, 4, 4, 5, 5, 5, 4,
            6, 7, -1, 7, 6, 6, 8, 8, 10, 9, 10, -1, 9, 9, 11, 11,
            12, 13, 12, 13, -1, 13, 14, 14, 16, 15, 17, 15, 16, -1, 17, 17,
            18, 20, 18, 20, 19, 20, -1, 20, 21, 21, 23, 21, 23, 22, 23, -1,
        ],
        [
            1, 5, 4, 1, 5, 5, 6, 3, 4, 6, 4, 3,
            3, 5, 2, 4, 4, 4, 4, 2, 7, 5, 2, 7,
        ],
    ]
    names = ("dist", "next_eid", "loads")
    wrong = [name for name, a, b in zip(names, built, expected) if a != b]
    if wrong:
        raise AssertionError(f"table builder warmup: wrong {', '.join(wrong)}")
    min_cut, witness = cuts(cube, np.arange(8, dtype=i64))
    # The NumPy spec's per-root profile of the cube, entries 1..7.
    if (min_cut[1:8].tolist(), witness[1:8].tolist()) != (
        [3, 4, 5, 4, 5, 4, 3], [0, 0, 0, 7, 0, 0, 0]
    ):
        raise AssertionError("cut sweep warmup: wrong profile")


def _find_cc() -> str | None:
    for cand in (os.environ.get("CC"), "cc", "gcc", "clang"):
        if cand:
            path = shutil.which(cand)
            if path:
                return path
    return None


def _cache_dir() -> str:
    return os.environ.get("REPRO_KERNEL_CACHE") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro-kernels"
    )


def _build_so(cc: str, src: str, source: bytes) -> str:
    """Compile (or reuse) the shared object for this kernel source."""
    digest = hashlib.sha256(source + cc.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"routing_kernel-{digest}.so")
    if os.path.exists(so_path):
        return so_path
    os.makedirs(cache, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, "-O2", "-shared", "-fPIC", "-o", tmp, src],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(proc.stderr.strip().splitlines()[-1] if proc.stderr else "cc failed")
        os.replace(tmp, so_path)  # atomic: concurrent builders agree
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return so_path


def _try_cext():
    src = os.path.join(os.path.dirname(__file__), "_kernel.c")
    if not os.path.exists(src):  # pragma: no cover - broken install
        _reasons["cext"] = "_kernel.c missing from the package"
        return None
    cc = _find_cc()
    if cc is None:
        _reasons["cext"] = "no C compiler on PATH (tried $CC, cc, gcc, clang)"
        return None
    try:
        with open(src, "rb") as f:
            source = f.read()
        lib = ctypes.CDLL(_build_so(cc, src, source))
    except Exception as exc:
        _reasons["cext"] = f"C kernel build failed: {exc}"
        return None
    fn = lib.route_kernel
    fn.restype = None
    # Pointers are int64 array data (int32 for the dist/next_eid tables);
    # scalars are int64.  Passing raw .ctypes.data keeps the hot path free
    # of per-call ndpointer checks.
    p, s = ctypes.c_void_p, ctypes.c_int64
    fn.argtypes = (
        [p] * 10 + [s] + [p] * 10 + [s] * 6 + [p]
    )

    def runner(
        leg_flat, leg_ptr, fin, stage, dist, next_eid, edge_dst, indptr,
        inj_pids, inj_times, pkey, qnext, qhead, qtail, qlen, mpid, meid,
        selbuf, delivered, traffic, n, num_edges, max_ticks, fifo,
        port_limit, undelivered,
    ):
        out = np.zeros(5, dtype=np.int64)
        fn(
            leg_flat.ctypes.data, leg_ptr.ctypes.data, fin.ctypes.data,
            stage.ctypes.data, dist.ctypes.data, next_eid.ctypes.data,
            edge_dst.ctypes.data, indptr.ctypes.data,
            inj_pids.ctypes.data, inj_times.ctypes.data, len(inj_pids),
            pkey.ctypes.data, qnext.ctypes.data, qhead.ctypes.data,
            qtail.ctypes.data, qlen.ctypes.data, mpid.ctypes.data,
            meid.ctypes.data,
            selbuf.ctypes.data, delivered.ctypes.data, traffic.ctypes.data,
            n, num_edges, max_ticks, fifo, port_limit, undelivered,
            out.ctypes.data,
        )
        return (int(out[0]), int(out[1]), int(out[2]), int(out[3]), int(out[4]))

    build = lib.dense_tables
    build.restype = ctypes.c_int64
    build.argtypes = [p, p, s] + [p] * 7

    def tables(csr: CSRAdjacency):
        n = csr.num_nodes
        indptr = np.ascontiguousarray(csr.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(csr.indices, dtype=np.int64)
        dist = np.empty((n, n), dtype=np.int32)
        next_eid = np.empty((n, n), dtype=np.int32)
        loads = np.zeros(csr.num_directed_edges, dtype=np.int64)
        scratch = np.empty((4, n), dtype=np.int64)
        status = build(
            indptr.ctypes.data, indices.ctypes.data, n,
            dist.ctypes.data, next_eid.ctypes.data, loads.ctypes.data,
            *(row.ctypes.data for row in scratch),
        )
        if status != 0:
            raise RuntimeError("machine graph is disconnected")
        return dist, next_eid, loads

    sweeps = lib.cut_sweeps
    sweeps.restype = ctypes.c_int64
    sweeps.argtypes = [p, p, s, p, s] + [p] * 9

    def cuts(csr: CSRAdjacency, roots: np.ndarray):
        n = csr.num_nodes
        indptr = np.ascontiguousarray(csr.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(csr.indices, dtype=np.int64)
        roots = np.ascontiguousarray(roots, dtype=np.int64)
        min_cut = np.full(n + 1, np.iinfo(np.int64).max, dtype=np.int64)
        witness = np.full(n + 1, -1, dtype=np.int32)
        scratch = np.empty((7, n), dtype=np.int64)
        status = sweeps(
            indptr.ctypes.data, indices.ctypes.data, n,
            roots.ctypes.data, len(roots),
            min_cut.ctypes.data, witness.ctypes.data,
            *(row.ctypes.data for row in scratch),
        )
        if status != 0:
            raise RuntimeError("machine graph is disconnected")
        return min_cut, witness

    try:
        _warmup(runner, tables, cuts)
    except Exception as exc:  # pragma: no cover - would mean a miscompile
        _reasons["cext"] = f"C kernel warmup failed: {exc}"
        return None
    return Provider("cext", runner, tables, cuts)


def get_provider() -> Provider | None:
    """The C kernel provider, or ``None`` when it cannot be built or
    ``REPRO_COMPILED=off`` hides it.  Memoized per mode; probing is
    side-effect-free beyond the on-disk shared-object cache."""
    mode = _mode()
    if mode not in _cache:
        if mode == "off":
            _reasons["off"] = "disabled via REPRO_COMPILED=off"
            _cache[mode] = None
        else:
            _cache[mode] = _try_cext()
    return _cache[mode]


def _unavailable_reason() -> str:
    if _mode() == "off":
        return _reasons["off"]
    return _reasons.get("cext", "no compiled provider available")


def require_provider() -> Provider:
    """Like :func:`get_provider` but raises
    :class:`EngineUnavailableError` (with the probe's reason) when no
    provider works."""
    provider = get_provider()
    if provider is None:
        raise EngineUnavailableError(
            f"compiled routing engine unavailable: {_unavailable_reason()} "
            "(use engine='auto' or 'fast' to fall back)"
        )
    return provider


def capability() -> dict:
    """Probe the compiled backend without raising.

    Returns ``{"available", "provider", "mode", "cc", "reason"}``;
    ``reason`` explains the fallback when unavailable.  The CLI and the
    benchmark harness record this verbatim.
    """
    provider = get_provider()
    return {
        "available": provider is not None,
        "provider": provider.name if provider else None,
        "mode": _mode(),
        "cc": _find_cc(),
        "reason": None if provider else _unavailable_reason(),
    }


def _reset_provider_cache() -> None:
    """Forget probe results (tests flip ``REPRO_COMPILED`` between runs)."""
    _cache.clear()
    _reasons.clear()


# -- the engine wrapper --------------------------------------------------------


def _kernel_layout(machine: Machine, tables: NextHopTables):
    """Machine-shaped kernel inputs, cached on the (machine-shared)
    tables object: the dense int32 dist/next_eid matrices as the kernel
    reads them (row-major, no copy) plus int64 CSR views."""
    cached = getattr(tables, "_kernel_layout", None)
    if cached is None:
        csr = machine.csr_adjacency()
        dense = tables.ensure_dense()
        degrees = np.diff(csr.indptr)
        cached = (
            np.ascontiguousarray(dense.dist, dtype=np.int32),
            np.ascontiguousarray(dense.next_eid, dtype=np.int32),
            np.ascontiguousarray(csr.edge_dst, dtype=np.int64),
            np.ascontiguousarray(csr.indptr, dtype=np.int64),
            int(degrees.max()) if len(degrees) else 0,
        )
        tables._kernel_layout = cached
    return cached


def route_compiled(
    machine: Machine,
    tables: NextHopTables,
    run: Run,
    policy: str,
) -> tuple[int, np.ndarray, np.ndarray, int, int]:
    """Route one run through the compiled kernel.

    Returns ``(total_time, delivery_times, traffic, max_queue,
    ticks_skipped)``, the first four exactly as
    :func:`~repro.routing.engine.route_many` returns them.  The per-tick
    invariant assertions of ``validate=True`` live only in the Python
    engines; the equivalence suites pin this kernel to them instead.
    """
    runner = require_provider().route

    leg_flat, leg_ptr, release, max_ticks = run
    npkts = run.num_packets
    num_edges = machine.csr_adjacency().num_directed_edges
    dist, next_eid, edge_dst, indptr, max_degree = _kernel_layout(
        machine, tables
    )

    # Everything but the self-messages goes to the kernel as one
    # (release, pid)-sorted injection stream (the kernel pre-enqueues
    # the release-0 prefix before the clock starts).
    delivered, travelling = start_run(leg_flat, leg_ptr, release)
    order = np.lexsort((travelling, release[travelling]))
    inj_pids = np.ascontiguousarray(travelling[order])
    inj_times = np.ascontiguousarray(release[travelling][order])

    fin = leg_flat[leg_ptr[1:] - 1]
    stage = np.ones(npkts, dtype=np.int64)
    pkey = np.zeros(npkts, dtype=np.int64)
    qnext = np.full(npkts, -1, dtype=np.int64)
    qhead = np.full(num_edges, -1, dtype=np.int64)
    qtail = np.full(num_edges, -1, dtype=np.int64)
    qlen = np.zeros(num_edges, dtype=np.int64)
    scratch = max(num_edges, 1)
    mpid = np.empty(scratch, dtype=np.int64)
    meid = np.empty(scratch, dtype=np.int64)
    selbuf = np.empty(max(max_degree, 1), dtype=np.int64)
    traffic = np.zeros(num_edges, dtype=np.int64)

    status, tick, max_queue, skipped, left = runner(
        leg_flat, leg_ptr, fin, stage,
        dist, next_eid, edge_dst, indptr,
        inj_pids, inj_times,
        pkey, qnext, qhead, qtail, qlen, mpid, meid, selbuf,
        delivered, traffic,
        machine.num_nodes, num_edges, int(max_ticks),
        1 if policy == "fifo" else 0,
        0 if machine.port_limit is None else int(machine.port_limit),
        len(travelling),
    )
    if status == KERNEL_STATUS_OVERRUN:
        raise RuntimeError(
            f"routing did not finish in {max_ticks} ticks "
            f"({left} packets left)"
        )
    return int(tick), delivered, traffic, int(max_queue), int(skipped)
