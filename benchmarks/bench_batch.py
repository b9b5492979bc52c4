"""Batched multi-run kernel bench: 8-seed replicates via ``route_many``.

Times an 8-seed replicated bandwidth estimate end-to-end both ways:

* **sequential** -- ``replicate()`` calling ``measure_bandwidth`` once
  per seed on the fast engine (each call rebuilds the traffic
  distribution and routes its seed as a one-run batch);
* **batched** -- ``replicate(..., batch=True)`` over
  ``measure_bandwidth_many``, which builds the traffic once, reuses the
  shared tables, and routes all seeds through one ``route_many`` tick
  loop.

The two paths are asserted bit-identical per seed before any timing
counts, the headline cell must reach the >= 5x acceptance bar, and the
grid deliberately includes a heavy-load cell where per-tick *element*
work (which batching cannot amortize -- see docs/PERFORMANCE.md) keeps
the speedup well below the headline: the recorded numbers are the
honest envelope, not a best case.  Results extend ``BENCH_routing.json``
under ``batch_records``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from conftest import emit
from repro.experiments import replicate
from repro.routing import measure_bandwidth, measure_bandwidth_many
from repro.topologies import family_spec
from repro.util import format_table

pytestmark = pytest.mark.slow

NUM_SEEDS = 8
ROUNDS = 3  # best-of, to damp machine noise
MIN_HEADLINE_SPEEDUP = 5.0

#: (family, n, num_messages, headline).  One measurement per node is the
#: replication-friendly load (many cheap replicates over one deep one);
#: the 8n default-load cells show the dilution when per-tick element
#: work dominates.
CONFIGS = [
    ("de_bruijn", 512, 512, True),
    ("mesh_2", 512, 512, False),
    ("hypercube", 512, 512, False),
    ("linear_array", 256, 2048, False),
    ("de_bruijn", 256, 2048, False),
]

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_routing.json"


def _time_pair(family: str, n: int, num_messages: int):
    """Best-of-``ROUNDS`` seconds for the sequential and batched paths."""
    machine = family_spec(family).build_with_size(n)

    def sequential(seed: int) -> float:
        return measure_bandwidth(
            machine, num_messages=num_messages, seed=seed
        ).rate

    def batched(seeds: list[int]) -> list[float]:
        return [
            m.rate
            for m in measure_bandwidth_many(
                machine, seeds, num_messages=num_messages
            )
        ]

    # Warm the shared table cache and assert bit-identity once up front.
    warm_seq = replicate(sequential, num_seeds=NUM_SEEDS)
    warm_bat = replicate(batched, num_seeds=NUM_SEEDS, batch=True)
    assert warm_seq.values == warm_bat.values, (family, n, num_messages)

    t_seq = min(
        _timed(lambda: replicate(sequential, num_seeds=NUM_SEEDS))
        for _ in range(ROUNDS)
    )
    t_bat = min(
        _timed(lambda: replicate(batched, num_seeds=NUM_SEEDS, batch=True))
        for _ in range(ROUNDS)
    )
    return t_seq, t_bat


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _run_grid():
    records = []
    for family, n, num_messages, headline in CONFIGS:
        t_seq, t_bat = _time_pair(family, n, num_messages)
        records.append(
            {
                "family": family,
                "n": n,
                "num_messages": num_messages,
                "seeds": NUM_SEEDS,
                "sequential_seconds": round(t_seq, 4),
                "batch_seconds": round(t_bat, 4),
                "speedup": round(t_seq / t_bat, 2),
                "headline": headline,
            }
        )
    return records


def test_batch_replicate_speedup(benchmark):
    records = benchmark.pedantic(_run_grid, rounds=1, iterations=1)

    # Extend BENCH_routing.json in place: bench_engine.py owns the other
    # keys, this bench owns batch_records; neither clobbers the other.
    payload = {}
    if _JSON_PATH.exists():
        payload = json.loads(_JSON_PATH.read_text())
    payload["batch_records"] = records
    _JSON_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    emit(
        format_table(
            ["family", "n", "msgs", "seeds", "seq s", "batch s", "speedup"],
            [
                (
                    r["family"] + (" *" if r["headline"] else ""),
                    r["n"],
                    r["num_messages"],
                    r["seeds"],
                    f"{r['sequential_seconds']:7.3f}",
                    f"{r['batch_seconds']:7.3f}",
                    f"{r['speedup']:6.2f}x",
                )
                for r in records
            ],
            title="8-seed replicate: batched kernel vs sequential fast "
            "engine (* = headline; BENCH_routing.json batch_records)",
        )
    )

    headline = [r for r in records if r["headline"]]
    assert headline, records
    assert all(
        r["speedup"] >= MIN_HEADLINE_SPEEDUP for r in headline
    ), headline
