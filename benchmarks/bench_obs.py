"""Observability overhead bench: the disabled tracer must be ~free.

The routing engine, harness, and service carry *permanent*
instrumentation (ISSUE-4), which is only acceptable if the disabled
path costs nothing measurable.  A naive A/B wall-clock comparison of
"measure_bandwidth before/after instrumentation" cannot resolve a
sub-2% effect on a noisy CI box, so the bound is **derived** instead:

1. time the disabled hooks in a tight loop -- ``span()`` returning the
   shared no-op and ``add()``/``event()`` falling through -- for a
   per-call cost in nanoseconds;
2. count how many hook calls one ``measure_bandwidth`` run actually
   makes, by running it once *traced* and tallying the recorded spans,
   events, and counter updates;
3. overhead = (hook calls x per-call cost) / untraced runtime.

That ratio is asserted < 2% and written to ``BENCH_obs.json`` together
with an informational enabled-vs-disabled A/B (the price of turning
tracing *on*, which is allowed to be visible).
"""

from __future__ import annotations

import json
import statistics
import time
import timeit
from pathlib import Path

from conftest import emit
from repro.obs import MemorySink, build_report
from repro.obs import trace as obs
from repro.routing import measure_bandwidth
from repro.routing.compiled import capability
from repro.topologies.registry import family_spec
from repro.util import format_table

FAMILY = "mesh_2"
SIZE = 64
NUM_MESSAGES = 256
SEED = 3
REPEATS = 5
HOOK_LOOP = 200_000
MAX_DISABLED_OVERHEAD = 0.02

_JSON_PATH = Path(__file__).resolve().parent.parent / "BENCH_obs.json"


def _noop_hook_ns() -> dict[str, float]:
    """Per-call cost of each disabled hook, in nanoseconds."""
    assert not obs.enabled(), "bench must start with tracing off"
    costs = {}
    for name, stmt in [
        ("span", lambda: obs.span("bench.noop", attr=1)),
        ("span_enter_exit", _span_enter_exit),
        ("add", lambda: obs.add("bench.counter", 2)),
        ("event", lambda: obs.event("bench.event", detail=1)),
    ]:
        seconds = min(
            timeit.repeat(stmt, number=HOOK_LOOP, repeat=3)
        )
        costs[name] = seconds / HOOK_LOOP * 1e9
    return costs


def _span_enter_exit() -> None:
    with obs.span("bench.noop"):
        pass


def _measure_once() -> float:
    machine = family_spec(FAMILY).build_with_size(SIZE)
    t0 = time.perf_counter()
    measure_bandwidth(machine, num_messages=NUM_MESSAGES, seed=SEED)
    return time.perf_counter() - t0


def _count_hook_calls() -> dict[str, int]:
    """Tally the hooks one measurement actually fires, via a traced run."""
    sink = MemorySink()
    with obs.tracing(sink=sink):
        machine = family_spec(FAMILY).build_with_size(SIZE)
        measure_bandwidth(machine, num_messages=NUM_MESSAGES, seed=SEED)
    report = build_report(sink.events)
    engine = "compiled" if capability()["available"] else "fast"
    batch_node = report.find("measure_bandwidth", "route.batch")
    route_node = report.find("measure_bandwidth", "route.batch", f"route.{engine}")
    assert batch_node is not None and route_node is not None, report.render()
    # the simulator fires three counters (calls/ticks/packets) per kernel
    # call and three (calls/runs/packets) per batch
    return {
        "spans": report.num_spans,
        "events": report.num_events,
        "counter_adds": 3 * route_node.count + 3 * batch_node.count,
    }


def test_disabled_tracer_overhead_under_two_percent():
    """The permanent instrumentation costs < 2% with tracing off."""
    hook_ns = _noop_hook_ns()
    hooks = _count_hook_calls()
    assert not obs.enabled()

    disabled = [_measure_once() for _ in range(REPEATS)]
    with obs.tracing(sink=MemorySink()):
        enabled = [_measure_once() for _ in range(REPEATS)]
    disabled_s = statistics.median(disabled)
    enabled_s = statistics.median(enabled)

    hook_cost_s = (
        hooks["spans"] * hook_ns["span_enter_exit"]
        + hooks["events"] * hook_ns["event"]
        + hooks["counter_adds"] * hook_ns["add"]
    ) * 1e-9
    overhead = hook_cost_s / disabled_s

    record = {
        "workload": {
            "family": FAMILY,
            "size": SIZE,
            "num_messages": NUM_MESSAGES,
            "seed": SEED,
        },
        "noop_hook_ns": {k: round(v, 1) for k, v in hook_ns.items()},
        "hook_calls_per_run": hooks,
        "disabled_median_s": round(disabled_s, 6),
        "enabled_median_s": round(enabled_s, 6),
        "derived_disabled_overhead": round(overhead, 6),
        "enabled_slowdown_x": round(enabled_s / disabled_s, 3),
        "bound": MAX_DISABLED_OVERHEAD,
    }
    _JSON_PATH.write_text(json.dumps(record, indent=2) + "\n")

    emit(
        format_table(
            ["quantity", "value"],
            [
                ("noop span enter+exit", f"{hook_ns['span_enter_exit']:.0f} ns"),
                ("noop counter add", f"{hook_ns['add']:.0f} ns"),
                (
                    "hook calls per run",
                    str(sum(hooks.values())),
                ),
                ("untraced run (median)", f"{disabled_s * 1e3:.1f} ms"),
                ("traced run (median)", f"{enabled_s * 1e3:.1f} ms"),
                (
                    "derived disabled overhead",
                    f"{overhead * 100:.4f}%  (bound {MAX_DISABLED_OVERHEAD:.0%})",
                ),
            ],
            title="Disabled-tracer overhead on measure_bandwidth "
            "(BENCH_obs.json)",
        )
    )
    assert overhead < MAX_DISABLED_OVERHEAD, record
