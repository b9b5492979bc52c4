"""End-to-end benchmark of the repro package, with a per-layer ledger.

Run from the root of a checkout::

    python3 bench/run.py --seed 0                          # every workload
    python3 bench/run.py --workload service --seed 1 --trace --out runs.jsonl

Each workload sets up three times (``setup_s`` is the median), then
repeats its pass of operations until ``--seconds`` are spent, checks
every output, and prints every metric by name with its unit.  Timings
are reported at a reference box speed: each set-up's and operation's
wall time is scaled by a speed probe timed right before it (see
``SpeedProbe``); the raw values are printed and recorded too.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics, or with
``--trace`` the per-layer ones from one extra, spanned round.  ``--out``
appends one JSON line per workload with the raw samples, the ledger and
an environment stamp; ``bench/compare.py`` compares two such files.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import sys
import time
from typing import Any

from common import (
    PROBE_REF_S,
    SEED_SPACE,
    WORK,
    SpeedProbe,
    Tally,
    env_stamp,
    prepare_environment,
    timed,
)
from metricdefs import CALL_COSTS, END_TO_END, FAILED_RATIO, LAYERS, OPERATION, PER_LAYER
from spans import NULL, SpanRecorder

#: Default measuring time of one run; ``BENCHMARK.json`` names the same.
DEFAULT_SECONDS = 15
SETUPS = 3
WORKLOADS = ("cli_cold", "routing_warm", "sweep_grid", "service")


def _workload_class(name: str):
    if name == "cli_cold":
        from wl_cli import CliCold as cls
    elif name == "routing_warm":
        from wl_routing import RoutingWarm as cls
    elif name == "sweep_grid":
        from wl_sweep import SweepGrid as cls
    else:
        from wl_service import Service as cls
    return cls


def run_passes(wl, seconds: float, speed: SpeedProbe) -> tuple[dict[str, list[float]], list[str]]:
    """Repeat the workload's pass until ``seconds`` are spent.

    At least one whole pass always runs; after that the phase ends at the
    first operation boundary past the deadline.  Returns each operation's
    ``(wall seconds, speed factor)`` samples, the factor probed right
    before the call, and the operation names of one pass.
    """
    samples: dict[str, list[tuple[float, float]]] = {}
    first_pass: list[str] = []
    deadline = time.perf_counter() + seconds
    index = 0
    while True:
        for op in wl.pass_ops(index):
            if index and time.perf_counter() >= deadline:
                return samples, first_pass
            factor = speed.factor()
            out, dt = timed(op.run)
            op.check(out)
            samples.setdefault(op.name, []).append((dt, factor))
            if not index:
                first_pass.append(op.name)
        index += 1


def summarize(wl, setups, samples, first_pass, adjusted: bool) -> dict[str, float]:
    """End-to-end and per-operation metrics from the medians of the
    ``(seconds, factor)`` samples, each scaled by its factor if ``adjusted``."""

    def median(pairs) -> float:
        return statistics.median(t * f if adjusted else t for t, f in pairs)

    medians = {name: median(pairs) for name, pairs in samples.items()}
    out = {
        "setup_s": median(setups),
        "cycle_s": sum(medians[name] for name in first_pass),
        "op_geomean_ms": math.exp(statistics.fmean(math.log(m) for m in medians.values())) * 1e3,
    }
    out.update(wl.operation_metrics(medians))
    return out


def ledger(wl, rec: SpanRecorder, probe: SpanRecorder, untraced: dict[str, float]) -> dict:
    """Per-layer metrics from the traced round ``rec`` and the
    in-process measurements in ``probe``."""
    root = rec.named("round")[0]
    self_times = rec.self_times()
    wall = root.duration
    unattributed = sum(t for name, t in self_times.items() if name == "round" or name.startswith("op."))
    base = untraced["cycle_s"] + (untraced["setup_s"] if wl.round_includes_setup else 0.0)
    out: dict[str, Any] = {}
    calls = [s for s in rec.spans + probe.spans if not s.attrs.get("grafted")]
    for layer in CALL_COSTS:
        durations = [s.duration for s in calls if s.name == layer]
        out[f"{layer}_ms"] = statistics.median(durations) * 1e3 if durations else 0.0
    routed = [s for s in calls if s.name == "routing.route" and "packets" in s.attrs]
    busy = sum(s.duration for s in routed)
    out["routing.pkts_per_s"] = sum(s.attrs["packets"] for s in routed) / busy if busy else 0.0
    out["routing.ticks"] = sum(s.attrs.get("ticks", 0) for s in routed)
    out["bench.unattributed_ratio"] = unattributed / wall
    out["bench.trace_overhead_ratio"] = wall / base - 1.0
    for layer in LAYERS:
        if layer in CALL_COSTS or layer in self_times:
            out[f"share.{layer}"] = self_times.get(layer, 0.0) / wall
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    tally = Tally()
    scratch = WORK / f"run-{os.getpid()}-{name}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    load_before = os.getloadavg()[0]
    if load_before > (os.cpu_count() or 1):
        print(f"warning: 1-minute load average {load_before:.2f} exceeds "
              f"{os.cpu_count()} CPUs; timings will be noisy", file=sys.stderr)
    wl = _workload_class(name)(seed, tally, scratch)
    record: dict[str, Any] = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    speed = SpeedProbe()
    try:
        wl.prepare()
        setups = []
        for i in range(SETUPS):
            if i:
                wl.reset()
            factor = speed.factor()
            setups.append((timed(lambda: wl.setup(NULL))[1], factor))
        wl.warm()
        samples, first_pass = run_passes(wl, seconds, speed)
        probe = SpanRecorder()
        wl.verify(probe)
        raw = summarize(wl, setups, samples, first_pass, adjusted=False)
        metrics = summarize(wl, setups, samples, first_pass, adjusted=True)
        record.update(
            setup_samples=setups, samples=samples, pass_ops=first_pass, raw_metrics=raw,
            speed={"probe_s": statistics.median(speed.samples), "reference_s": PROBE_REF_S,
                   "n": len(speed.samples), "cpus": speed.cpus},
        )
        if trace:
            rec = SpanRecorder()
            extras = wl.traced_round(rec, probe)
            record["ledger"] = {**ledger(wl, rec, probe, raw), **extras}
            record["spans"] = rec.as_records() + [
                {**s, "probe": True} for s in probe.as_records()
            ]
    finally:
        wl.close()
        shutil.rmtree(scratch, ignore_errors=True)
    metrics[FAILED_RATIO.name] = tally.failed / tally.attempted if tally.attempted else 1.0
    record.update(
        metrics=metrics,
        notes=wl.notes,
        attempted=tally.attempted,
        failed=tally.failed,
        failures=tally.failures,
        load_avg={"before": load_before, "after": os.getloadavg()[0]},
    )
    return record


def _show(value: Any) -> str:
    if isinstance(value, dict):  # a latency summary
        tail = f", {value['tail_pct']} {value['tail']:.4g}" if value.get("tail_pct") else ""
        return f"p50 {value['p50']:.4g}{tail} (n={value['n']})"
    return f"{value:.6g}"


_SUFFIX_UNITS = (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_ratio", "ratio"))


def _unit(name: str, known: dict[str, str]) -> str:
    """A metric's unit: declared, or read off a diagnostic's name."""
    if name in known:
        return known[name]
    for part in reversed(name.split(".")):
        for suffix, unit in _SUFFIX_UNITS:
            if part.endswith(suffix):
                return unit
    return ""


def report(record: dict[str, Any]) -> None:
    name = record["workload"]
    units = {m.name: m.unit for m in END_TO_END + OPERATION[name] + (FAILED_RATIO,) + PER_LAYER}
    print(f"== {name} (seed {record['seed']}, {record['attempted']} ops, "
          f"{record['failed']} failed)")
    raw = record.get("raw_metrics", {})
    shown = {**record["metrics"], **record["notes"], **record.get("ledger", {})}
    for key, value in shown.items():
        line = f"  {key:<34} {_show(value):>22} {_unit(key, units)}"
        print(line + (f"  (raw {raw[key]:.6g})" if key in raw else ""))
    if "speed" in record:
        print(f"  box speed: probe median {record['speed']['probe_s'] * 1e3:.3f} ms "
              f"(n={record['speed']['n']}), reference {PROBE_REF_S * 1e3:.3f} ms")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}", file=sys.stderr)


def summary_line(records: list[dict[str, Any]], trace: bool) -> dict[str, Any]:
    """The one-line result: end-to-end metrics, or per-layer ones with
    ``--trace``; names get a ``workload.`` prefix when several ran."""
    chosen = PER_LAYER if trace else END_TO_END
    metrics = {}
    for record in records:
        values = record.get("ledger", {}) if trace else record["metrics"]
        prefix = f"{record['workload']}." if len(records) > 1 else ""
        for m in chosen:
            metrics[prefix + m.name] = {"value": values.get(m.name, 0.0), "unit": m.unit}
    failed = sum(r["failed"] for r in records)
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in records),
        "failed": failed,
        "metrics": metrics,
    }


def _trace_flag(text: str) -> int:
    if text not in ("0", "1"):
        raise argparse.ArgumentTypeError("expected 0 or 1")
    return int(text)


def _seed(text: str) -> int:
    """Any integer, reduced into the seed range every entry point accepts."""
    return int(text) % SEED_SPACE


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="extend", nargs="+", choices=WORKLOADS,
                    help="workloads to run (default: all)")
    ap.add_argument("--seed", type=_seed, default=0, help="workload input seed")
    ap.add_argument("--seconds", type=int, default=DEFAULT_SECONDS,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=_trace_flag, nargs="?", const=1, default=0,
                    help="add the traced round and report per-layer metrics")
    ap.add_argument("--out", default=None, help="append one JSON line per workload")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    prepare_environment()

    records = [
        run_workload(name, args.seed, args.seconds, bool(args.trace))
        for name in (args.workload or WORKLOADS)
    ]
    from repro.routing.compiled import capability

    env = {**env_stamp(), "compiled": capability()}
    for record in records:
        record["env"] = env
        report(record)
    if args.out:
        with open(args.out, "a") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")
    print(json.dumps(summary_line(records, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
