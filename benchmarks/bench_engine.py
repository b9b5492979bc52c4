"""Routing-engine A/B: the vectorized engine vs the reference spec.

Times ``measure_bandwidth`` end-to-end (table build + itinerary
construction + tick loop) on fresh machines for both engines, checks
the results are identical, and records packets/sec, the speedup, and
the sweep-harness cache stats in ``BENCH_routing.json`` at the repo
root -- the perf trajectory for the simulator.

The grid defaults to four registry families at n=256 plus two n=1024
cells and can be filtered from the pytest command line instead of
editing the file::

    pytest benchmarks/bench_engine.py --families mesh_2,de_bruijn --sizes 256

The timed region deliberately excludes machine construction (identical
for both engines), so the speedup isolates the engines themselves; the
harness pass afterwards runs the cheap cells of the same grid through
``run_sweep`` twice and asserts the warm pass is served entirely from
the result store.

The acceptance bar for the vectorized engine is a >= 10x speedup for at
least one family at n >= 256 (it lands well above that on the richer
families; the linear array is tick-bound -- many ticks, few active
packets each -- so vectorization buys less there).
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import pytest

import numpy as np

from conftest import emit
from repro.harness import Job, ResultStore, run_sweep
from repro.routing import RoutingSimulator, measure_bandwidth
from repro.routing import compiled as compiled_backend
from repro.topologies import build_ring, family_spec
from repro.traffic import symmetric_traffic
from repro.util import format_table

pytestmark = pytest.mark.slow

#: Default (family, requested size) grid; batch is the 8n default.
DEFAULT_FAMILIES = ["linear_array", "xtree", "mesh_2", "de_bruijn"]
DEFAULT_SIZES = [256]
#: Extra big cells exercised only when no filter is given.
EXTRA_CONFIGS = [("mesh_2", 1024), ("de_bruijn", 1024)]

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_routing.json"


def build_configs(
    families: list[str] | None, sizes: list[int] | None
) -> list[tuple[str, int]]:
    """The benchmark grid: filters replace the hard-coded defaults."""
    configs = [
        (f, s) for f in (families or DEFAULT_FAMILIES) for s in (sizes or DEFAULT_SIZES)
    ]
    if families is None and sizes is None:
        configs += EXTRA_CONFIGS
    return configs


def _time_engine(key: str, size: int, engine: str):
    """Build a fresh machine (so shared table caches cannot leak between
    engines), pre-build the traffic outside the timed region, and time
    one measure_bandwidth call."""
    machine = family_spec(key).build_with_size(size)
    traffic = symmetric_traffic(machine.num_nodes)
    t0 = time.perf_counter()
    meas = measure_bandwidth(machine, traffic=traffic, seed=0, engine=engine)
    return time.perf_counter() - t0, meas


def _harness_cache_stats(configs):
    """Run the grid's cheap cells through the sweep harness, twice.

    The cold pass computes and stores each (family, size, engine) cell;
    the warm pass must be served entirely from the result store with
    identical values.  Returns the store counters for the JSON record.
    """
    cells = [(f, s) for f, s in configs if s <= 256] or configs[:1]
    store = ResultStore(tempfile.mkdtemp(prefix="repro-engine-"))
    jobs = [
        Job("measure_bandwidth", {"family": f, "size": s, "seed": 0, "engine": e})
        for f, s in cells
        for e in ("fast", "reference")
    ]
    cold = run_sweep(jobs, store=store)
    assert cold.ok, cold.errors()
    for f, s in cells:
        fast = cold.value_by_spec(family=f, size=s, engine="fast")
        ref = cold.value_by_spec(family=f, size=s, engine="reference")
        for field in ("total_time", "rate", "max_edge_traffic"):
            assert fast[field] == ref[field], (f, s, field)
    warm = run_sweep(jobs, store=store)
    assert warm.cache_hit_rate == 1.0, warm.as_dict()
    assert warm.values == cold.values
    return store.stats.as_dict()


def _run_ab(configs):
    records = []
    for key, size in configs:
        t_fast, fast = _time_engine(key, size, "fast")
        t_ref, ref = _time_engine(key, size, "reference")
        assert fast.total_time == ref.total_time, (key, size)
        assert fast.rate == ref.rate, (key, size)
        assert fast.max_edge_traffic == ref.max_edge_traffic, (key, size)
        records.append(
            {
                "family": key,
                "n": size,
                "num_messages": fast.num_messages,
                "fast_seconds": round(t_fast, 4),
                "reference_seconds": round(t_ref, 4),
                "fast_packets_per_sec": round(fast.num_messages / t_fast, 1),
                "reference_packets_per_sec": round(
                    ref.num_messages / t_ref, 1
                ),
                "speedup": round(t_ref / t_fast, 2),
            }
        )
    return records, _harness_cache_stats(configs)


def test_engine_speedup(benchmark, request):
    families = request.config.getoption("bench_families", default=None)
    sizes = request.config.getoption("bench_sizes", default=None)
    configs = build_configs(families, sizes)
    records, cache_stats = benchmark.pedantic(
        _run_ab, args=(configs,), rounds=1, iterations=1
    )
    # Merge-write: bench_batch.py owns the batch_records key of the same
    # file, so preserve any keys this bench does not produce itself.
    payload = {}
    if _JSON_PATH.exists():
        payload = json.loads(_JSON_PATH.read_text())
    payload.update({"records": records, "harness_cache": cache_stats})
    _JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        (
            r["family"],
            r["n"],
            r["num_messages"],
            f"{r['fast_packets_per_sec']:10.0f}",
            f"{r['reference_packets_per_sec']:10.0f}",
            f"{r['speedup']:6.1f}x",
        )
        for r in records
    ]
    emit(
        format_table(
            ["family", "n", "msgs", "fast pkt/s", "ref pkt/s", "speedup"],
            rows,
            title="Routing engine A/B (identical results; BENCH_routing.json)",
        )
    )

    big = [r for r in records if r["n"] >= 256]
    if big:
        assert max(r["speedup"] for r in big) >= 10.0, big


#: The engine-matrix grid: four registry families at both sizes.  The
#: linear array is deliberately absent -- at n=1024 a random batch means
#: ~2.8M packet-hops over thousands of ticks, which takes minutes while
#: telling us nothing the n=256 A/B above doesn't.
MATRIX_FAMILIES = ["xtree", "mesh_2", "de_bruijn", "hypercube"]
MATRIX_SIZES = [256, 1024]
#: Engines raced in the matrix (compiled joins when a provider works).
MATRIX_ENGINES = ["fast"] + (
    ["compiled"] if compiled_backend.capability()["available"] else []
)


def _matrix_cell(key: str, size: int) -> dict:
    """Race every engine on one (family, n) cell, route-only.

    The machine, next-hop tables, compiled kernel layout, and the
    workload (a random 8n-message batch, the bandwidth-measurement
    default, handed over as one ndarray so the rectangular fast path
    applies) are all built before the timed region, so the numbers
    isolate the engines' tick loops; each engine's result is asserted
    identical to the fast engine's before its time counts.  Arbitration
    is FIFO throughout.
    """
    machine = family_spec(key).build_with_size(size)
    n = machine.num_nodes
    rng = np.random.default_rng(0)
    m = 8 * n
    src = rng.integers(0, n, size=m)
    dst = rng.integers(0, n, size=m)
    its = np.column_stack([src, dst])
    row = {"family": key, "n": size, "num_messages": m}
    baseline = None
    for engine in MATRIX_ENGINES:
        sim = RoutingSimulator(machine, policy="fifo", engine=engine)
        res = sim.route(its)  # warm: tables, provider, kernel layout
        if baseline is None:
            baseline = res
        else:
            assert res.total_time == baseline.total_time, (key, size, engine)
            assert np.array_equal(
                res.delivery_times, baseline.delivery_times
            ), (key, size, engine)
            assert res.edge_traffic == baseline.edge_traffic, (
                key, size, engine,
            )
        elapsed = float("inf")
        for _ in range(3):  # best-of-3: one-shot timings are too noisy
            t0 = time.perf_counter()
            sim.route(its)
            elapsed = min(elapsed, time.perf_counter() - t0)
        row[f"{engine}_seconds"] = round(elapsed, 4)
        row[f"{engine}_packets_per_sec"] = round(m / elapsed, 1)
    return row


def test_engine_matrix(benchmark):
    """fast/compiled packets-per-sec across the family grid.

    Emits the ``engine_matrix`` key of BENCH_routing.json (plus the
    ``compiled_backend`` capability probe, so hosts without a provider
    record *why* the compiled column is missing).  The acceptance bar:
    the compiled kernel clears 1M packets/sec on at least one n=1024
    family when a provider is available.
    """
    cells = [(f, s) for f in MATRIX_FAMILIES for s in MATRIX_SIZES]
    matrix = benchmark.pedantic(
        lambda: [_matrix_cell(f, s) for f, s in cells],
        rounds=1,
        iterations=1,
    )
    payload = {}
    if _JSON_PATH.exists():
        payload = json.loads(_JSON_PATH.read_text())
    payload.update(
        {
            "engine_matrix": matrix,
            "compiled_backend": compiled_backend.capability(),
        }
    )
    _JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    rows = [
        tuple(
            [r["family"], r["n"]]
            + [
                f"{r.get(f'{e}_packets_per_sec', float('nan')):12.0f}"
                for e in MATRIX_ENGINES
            ]
        )
        for r in matrix
    ]
    emit(
        format_table(
            ["family", "n"] + [f"{e} pkt/s" for e in MATRIX_ENGINES],
            rows,
            title="Engine matrix (identical results; BENCH_routing.json)",
        )
    )
    if "compiled" in MATRIX_ENGINES:
        peak = max(
            r["compiled_packets_per_sec"] for r in matrix if r["n"] == 1024
        )
        assert peak >= 1_000_000, matrix
    else:
        emit(
            "compiled engine unavailable: "
            + str(compiled_backend.capability()["reason"])
        )


def test_low_injection_speedup(benchmark):
    """A rate <= 0.05 open-loop sweep: the compiled kernel vs fast.

    Reuses the saturation-sweep workload construction (ring of 8,
    Bernoulli injection over 16384 ticks) but times only the routing
    calls, so the speedup measures the engines rather than the shared
    workload generation.  Most ticks are idle here: the compiled kernel
    jumps over the empty ones, while the fast engine pays NumPy dispatch
    on every tick.  Records ``low_injection`` in BENCH_routing.json,
    including the share of ticks the kernel skipped per rate; the bar is
    >= 10x over the fast engine.
    """
    if "compiled" not in MATRIX_ENGINES:
        pytest.skip(
            "compiled engine unavailable: "
            + str(compiled_backend.capability()["reason"])
        )
    from repro.obs import trace as obs

    machine = build_ring(8)
    n = machine.num_nodes
    rates = [0.01, 0.02, 0.05]
    duration = 16384
    rng = np.random.default_rng(0)
    draw = symmetric_traffic(n).sampler()
    runs = []
    for r in rates:
        inject = rng.random((duration, n)) < r
        msgs = draw(int(inject.sum()), seed=rng)
        ticks, nodes = np.nonzero(inject)
        dst = np.asarray(msgs, dtype=np.int64)[:, 1]
        dst = np.where(dst == nodes, (dst + 1) % n, dst)
        runs.append(
            (np.column_stack([nodes, dst]).tolist(), ticks.tolist())
        )

    def race():
        out = {}
        results = {}
        for engine in ("fast", "compiled"):
            sim = RoutingSimulator(machine, policy="fifo", engine=engine)
            sim.route(runs[0][0][:4], release_times=runs[0][1][:4])  # warm
            t0 = time.perf_counter()
            results[engine] = [
                sim.route(its, release_times=rel) for its, rel in runs
            ]
            out[engine] = time.perf_counter() - t0
        for a, b in zip(results["fast"], results["compiled"]):
            assert a.total_time == b.total_time
            assert np.array_equal(a.delivery_times, b.delivery_times)
            assert a.edge_traffic == b.edge_traffic
        skipped = []
        sim = RoutingSimulator(machine, policy="fifo", engine="compiled")
        for its, rel in runs:
            with obs.tracing(sink=obs.MemorySink()) as tracer:
                sim.route(its, release_times=rel)
                skipped.append(tracer.counters()["route.ticks_skipped"])
        ticks = [r.total_time for r in results["compiled"]]
        return {
            "machine": "ring",
            "n": n,
            "rates": rates,
            "duration": duration,
            "fast_seconds": round(out["fast"], 4),
            "compiled_seconds": round(out["compiled"], 4),
            "speedup": round(out["fast"] / out["compiled"], 2),
            "ticks_skipped_fraction": round(sum(skipped) / sum(ticks), 4),
            "ticks_skipped_fraction_by_rate": [
                round(s / t, 4) for s, t in zip(skipped, ticks)
            ],
        }

    record = benchmark.pedantic(race, rounds=1, iterations=1)
    payload = {}
    if _JSON_PATH.exists():
        payload = json.loads(_JSON_PATH.read_text())
    payload.update({"low_injection": record})
    _JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    emit(
        f"low-injection sweep (ring n={n}, rates<=0.05): "
        f"compiled {record['speedup']}x over fast, "
        f"{record['ticks_skipped_fraction']:.1%} of ticks skipped"
    )
    assert record["speedup"] >= 10.0, record
