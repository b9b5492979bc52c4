"""Fabric acceptance bench: worker scaling + snapshot-vs-store latency.

Three measurements, all recorded under the ``fabric`` key of
``BENCH_harness.json`` (the sweep subsystem's perf trajectory file,
whose existing flat keys are left untouched):

1. **worker scaling** -- the ISSUE-2 acceptance grid executed through
   the fabric with 1/2/4/8 workers, asserting every configuration is
   bit-identical to the serial sweep;
2. **tier read latency** -- per-lookup cost of the memory-mapped
   :class:`~repro.fabric.snapshot.CatalogSnapshot` vs the on-disk
   :class:`~repro.harness.store.ResultStore` over the same cells;
3. **service cold vs snapshot** -- ``GET /v1/bandwidth`` on a
   snapshotted cell must be >= 50x faster than the same query computed
   cold, which is the whole point of shipping a snapshot with a
   deployment.
"""

from __future__ import annotations

import json
import statistics
import tempfile
import time
from pathlib import Path

import pytest

from conftest import emit
from repro.fabric import CatalogSnapshot, FabricExecutor, build_snapshot
from repro.harness import (
    ResultStore,
    SerialExecutor,
    canonical_json,
    expand_grid,
    run_sweep,
)
from repro.routing import DEFAULT_ENGINE
from repro.service.app import QueryService
from repro.util import format_table

pytestmark = pytest.mark.slow

AXES = {
    "family": ["linear_array", "tree", "mesh_2", "de_bruijn"],
    "size": [64, 128, 256],
    "seed": [0, 1, 2, 3],
}
WORKER_COUNTS = [1, 2, 4, 8]
LOOKUPS = 200

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_harness.json"

SNAPPED_QUERY = {"family": "de_bruijn", "size": "256", "seed": "0"}


def _time_lookups(getter, hashes) -> float:
    """Median per-lookup microseconds over LOOKUPS rounds."""
    rounds = []
    for _ in range(5):
        t0 = time.perf_counter()
        for job_hash in hashes:
            hit, _value = getter(job_hash)
            assert hit
        rounds.append((time.perf_counter() - t0) / len(hashes) * 1e6)
    return statistics.median(rounds)


def test_fabric_scaling_and_snapshot_latency():
    # engine is pinned in the base spec so each cell's content hash
    # matches what the service computes for the same query (its schema
    # writes the default engine into the spec).
    jobs = expand_grid("measure_bandwidth", AXES, {"engine": DEFAULT_ENGINE})
    serial = run_sweep(jobs, executor=SerialExecutor())
    assert serial.ok, serial.errors()

    scaling: dict[str, float] = {}
    for workers in WORKER_COUNTS:
        fabric = run_sweep(jobs, executor=FabricExecutor(num_workers=workers))
        assert fabric.ok, fabric.errors()
        assert canonical_json(fabric.values) == canonical_json(serial.values)
        scaling[str(workers)] = round(fabric.wall_seconds, 4)

    # -- tier read latency: snapshot mmap vs result store ---------------
    snap_path = Path(tempfile.mkdtemp(prefix="repro-bench-snap-")) / "c.snap"
    build_snapshot(serial.results, snap_path)
    store = ResultStore(tempfile.mkdtemp(prefix="repro-bench-store-"))
    for result in serial.results:
        store.put(result.job, result.value, seconds=result.seconds)
    hashes = [job.job_hash for job in jobs]
    by_hash = {job.job_hash: job for job in jobs}
    snapshot = CatalogSnapshot(snap_path)
    snap_us = _time_lookups(snapshot.get, hashes)
    store_us = _time_lookups(
        lambda h: store.get(by_hash[h]), hashes
    )

    # -- service: snapshotted query vs cold compute ----------------------
    snapped_service = QueryService(snapshot=snapshot)
    snap_times = []
    for _ in range(20):
        t0 = time.perf_counter()
        status, payload = snapped_service.handle(
            "GET", "/v1/bandwidth", SNAPPED_QUERY
        )
        snap_times.append(time.perf_counter() - t0)
        assert status == 200 and payload["meta"]["cache"] == "snapshot"
    cold_times = []
    for _ in range(3):
        cold_service = QueryService()  # fresh: nothing cached anywhere
        t0 = time.perf_counter()
        status, payload = cold_service.handle(
            "GET", "/v1/bandwidth", SNAPPED_QUERY
        )
        cold_times.append(time.perf_counter() - t0)
        assert status == 200 and payload["meta"]["cache"] == "miss"
    snap_ms = statistics.median(snap_times) * 1e3
    cold_ms = statistics.median(cold_times) * 1e3
    speedup = cold_ms / snap_ms

    record = {
        "grid": {k: v for k, v in AXES.items()},
        "num_cells": len(jobs),
        "serial_seconds": round(serial.wall_seconds, 4),
        "worker_scaling_seconds": scaling,
        "bit_identical": True,
        "snapshot_lookup_us": round(snap_us, 2),
        "store_lookup_us": round(store_us, 2),
        "lookup_speedup": round(store_us / snap_us, 2),
        "service_cold_ms": round(cold_ms, 3),
        "service_snapshot_ms": round(snap_ms, 3),
        "service_snapshot_speedup": round(speedup, 1),
    }
    try:
        previous = json.loads(_JSON_PATH.read_text())
    except (OSError, ValueError):
        previous = {}
    previous["fabric"] = record
    _JSON_PATH.write_text(json.dumps(previous, indent=2) + "\n")

    rows = [("serial", f"{serial.wall_seconds:8.2f}", "1.0x")] + [
        (
            f"fabric[{workers}]",
            f"{seconds:8.2f}",
            f"{serial.wall_seconds / seconds:.1f}x",
        )
        for workers, seconds in scaling.items()
    ]
    emit(
        format_table(
            ["executor", "wall s", "vs serial"], rows,
            title=f"Fabric scaling on {len(jobs)} measure_bandwidth cells",
        )
    )
    emit(
        format_table(
            ["tier", "per lookup", "service query"],
            [
                ("snapshot (mmap)", f"{snap_us:8.1f} us", f"{snap_ms:8.3f} ms"),
                ("result store", f"{store_us:8.1f} us", ""),
                ("cold compute", "", f"{cold_ms:8.3f} ms"),
            ],
            title=f"Snapshot tier latency ({speedup:.0f}x vs cold compute; "
            "BENCH_harness.json key 'fabric')",
        )
    )
    assert speedup >= 50.0, record
    assert snap_us < store_us, record
