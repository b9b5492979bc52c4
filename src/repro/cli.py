"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``tables``      -- print Tables 1-4 exactly as the benches derive them;
* ``figure1``     -- print the Figure-1 series for a (guest, host, n);
* ``bandwidth``   -- measure a machine's bandwidth three ways;
* ``saturation``  -- open-loop offered-load sweep (rate/latency curve);
* ``emulate``     -- run a guest-on-host emulation and report slowdown;
* ``catalog``     -- print the full guest x host maximum-host-size matrix;
* ``families``    -- list every registered machine family;
* ``workloads``   -- list every registered traffic scenario;
* ``sweep``       -- run a parameter grid, in process or on ``--workers N``
  forked fabric workers (see docs/FABRIC.md); with ``--store DIR`` every
  cell whose progress line printed is in the store, so rerunning an
  interrupted sweep with the same store resumes it;
* ``snapshot``    -- build/inspect a memory-mapped catalog snapshot the
  service mounts as its fastest cache tier (``serve --snapshot``);
* ``serve``       -- run the long-lived JSON query service over HTTP
  (``--workers N`` starts the pre-fork multi-process tier);
* ``loadtest``    -- drive a running service with closed- or open-loop
  synthetic load (see docs/LOADTEST.md);
* ``trace``       -- aggregate a span trace file into a timing report;
* ``reproduce``   -- run every experiment and write JSON artifacts.

The query commands (``bandwidth``, ``saturation``, ``emulate``,
``catalog``, ``families``, ``workloads``) take their arguments from
:data:`repro.operations.OPERATIONS`, the table the service's routes
come from, and validate them through the same schemas: out-of-range
input stops with the service's message as one ``error: ...`` line.

Each handler imports what it runs, so a command that prints registry
metadata or symbolic tables never loads numpy, scipy or networkx.

``bandwidth``, ``saturation``, ``emulate``, ``sweep``, and ``serve``
accept ``--trace FILE``: the run executes under the observability
tracer (:mod:`repro.obs`) with one root ``cli.<command>`` span, and the
resulting JSON-lines file feeds ``python -m repro trace report FILE``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from dataclasses import replace

from repro.operations import MAX_MACHINE_SIZE, OPERATIONS, Field, catalog_jobs, client_error
from repro.topologies import all_family_keys, family_spec
from repro.util import format_table

__all__ = ["main"]

#: ``figure1 --n``: the curves are evaluated in floating point, so the
#: guest size must fit in a float.
_FIGURE1_N = Field(
    "n", "int", default=2**14, minimum=4, maximum=sys.float_info.max,
    help="guest size",
)

#: ``serve --port`` and ``loadtest --port``: a TCP port (0 = ephemeral).
_PORT = Field("port", "int", default=8080, minimum=0, maximum=65535, help="TCP port")

#: ``loadtest``'s load shape, bounded so a bad value names its flag: a
#: zero timeout makes a non-blocking socket, a window that is not
#: positive sends nothing, each connection is a thread, and an open loop
#: draws rate x duration arrival times up front.
_LOAD_FIELDS = (
    Field("connections", "int", default=4, minimum=1, maximum=256,
          help="concurrent keep-alive connections"),
    Field("rate", "float", minimum=0.01, maximum=10000.0,
          help="offered requests/second (open loop; required)"),
    Field("duration", "float", default=5.0, minimum=0.01, maximum=3600.0,
          help="measurement window in seconds"),
    Field("timeout", "float", default=30.0, minimum=0.01, maximum=3600.0,
          help="per-request client timeout in seconds"),
)

#: ``loadtest --mix-size``: the bandwidth schema's size bounds, outside
#: which every request of the mix would come back 422.
_MIX_SIZE = Field(
    "mix_size", "int", minimum=2, maximum=MAX_MACHINE_SIZE,
    help="machine size the mix queries (mix-dependent; default 64)",
)

#: ``--workers`` of ``sweep``, ``snapshot build`` and ``serve``: each
#: worker is a forked process, so the count is capped like
#: ``loadtest --connections``.
_WORKERS = Field(
    "workers", "int", default=1, minimum=1, maximum=256,
    help="worker processes, 1 to 256 (1 = in this process; more fork fabric "
    "workers)",
)

#: ``sweep``'s executor settings.  A deadline that is not positive makes
#: ``setitimer`` fail every cell, and a NaN one fails them too.
_SWEEP_FIELDS = (
    _WORKERS,
    Field("retries", "int", default=1, minimum=0, maximum=100,
          help="retries per transient failure or worker death"),
    Field("timeout", "float", minimum=0.01, maximum=86400.0,
          help="per-job timeout in seconds"),
)

_SNAPSHOT_WORKERS = replace(
    _WORKERS, default=4,
    help="forked fabric workers, 1 to 256 (1 = compute serially in-process)",
)

#: ``serve``'s process, cache and drain settings, checked before any
#: process forks or port binds: a negative cache size or TTL would turn
#: the memory tier off, a NaN TTL would never expire an entry, and zero
#: request threads would be announced at boot but run as one.
_SERVE_FIELDS = (
    replace(
        _WORKERS,
        help="worker *processes*, 1 to 256; >1 starts the pre-fork tier (a master "
        "reserves the port, workers share it via SO_REUSEPORT; see "
        "docs/SERVICE.md)",
    ),
    Field("cache_size", "int", default=1024, minimum=0, maximum=1_000_000,
          help="in-process LRU capacity in entries (0 keeps no memory tier)"),
    Field("ttl", "float", default=300.0, minimum=0.01, maximum=31_536_000.0,
          help="in-process cache TTL in seconds"),
    Field("max_workers", "int", default=8, minimum=1, maximum=256,
          help="max concurrently processed requests (threads per process)"),
    Field("drain_timeout", "float", default=10.0, minimum=0.01, maximum=3600.0,
          help="seconds to wait for in-flight requests on SIGTERM"),
)


def _coerced(args, fields) -> dict:
    """Each of ``fields`` given (or defaulted) in ``args``, typed and
    bounded by its :class:`Field`, so a bad value names its flag."""
    return {
        field.name: field.coerce(getattr(args, field.name))
        for field in fields
        if getattr(args, field.name) is not None
    }


def _add_field(parser: argparse.ArgumentParser, field: Field) -> None:
    """One argument for a schema field: positional when required, else
    ``--dashed``.  Values stay text until :func:`_params` runs them
    through the schema, which types, bounds and reports them."""
    kwargs = {"help": field.help, "choices": field.choices}
    if field.kind.endswith("_list"):
        kwargs["nargs"] = "+"
    if field.required:
        parser.add_argument(field.name, **kwargs)
        return
    if field.default is not None:
        kwargs["help"] += " (default: %(default)s)"
    parser.add_argument(
        "--" + field.name.replace("_", "-"), dest=field.name,
        default=field.default, **kwargs,
    )


def _add_operation(sub, name: str, fn, skip: tuple[str, ...] = ()):
    """The ``name`` subcommand with one argument per field of the
    operation's schema (:data:`repro.operations.OPERATIONS`)."""
    op = OPERATIONS[name]
    parser = sub.add_parser(name, help=op.help)
    for field in op.schema.fields.values() if op.schema else ():
        if field.name not in skip:
            _add_field(parser, field)
    parser.set_defaults(fn=fn, op=op)
    return parser


def _params(args, **raw) -> dict:
    """The parsed arguments (plus ``raw``), validated by the command's
    schema: the service's types, defaults, bounds and messages."""
    schema = args.op.schema
    raw.update(
        (name, value) for name, value in vars(args).items()
        if name in schema.fields and value is not None
    )
    return schema.validate(raw)


def _cli_workload(key: str | None, overrides: list[str] | None, n: int):
    """A validated ``--workload`` key with its ``--workload-param``
    overrides -> a built Workload, or None."""
    params = {
        k: _parse_scalar(v)
        for k, v in (
            _parse_kv(item, "--workload-param") for item in overrides or []
        )
    }
    if key is None:
        if params:
            raise SystemExit("error: --workload-param given without --workload")
        return None
    from repro.workloads import workload_spec

    return workload_spec(key).build_with_size(n, **params)


@contextlib.contextmanager
def _traced(args, root: str):
    """Run a command body under ``--trace FILE`` with one root span.

    Yields nothing; the caller's whole block becomes the ``cli.<cmd>``
    span, so the trace report's top-level total *is* the command's wall
    time.  Without ``--trace`` this is a plain pass-through.
    """
    path = getattr(args, "trace", None)
    if not path:
        yield
        return
    from repro.obs import span, tracing

    with tracing(path):
        with span(root):
            yield
    print(
        f"trace written to {path} "
        f"(render: python -m repro trace report {path})"
    )


def _add_trace_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a span trace (JSON lines) of this run to FILE",
    )


def _add_grid_flags(parser: argparse.ArgumentParser) -> None:
    """``sweep``'s grid, store and output flags."""
    parser.add_argument("job", help="job alias or dotted 'module:callable' path")
    parser.add_argument("--families", nargs="*", help="axis sugar: family keys")
    parser.add_argument("--sizes", type=int, nargs="*", help="axis sugar: sizes")
    parser.add_argument(
        "--seeds", type=int, help="axis sugar: seeds 0..N-1", metavar="N"
    )
    parser.add_argument(
        "--axis",
        action="append",
        metavar="KEY=V1,V2,...",
        help="generic sweep axis (repeatable)",
    )
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="fixed spec entry shared by every cell (repeatable)",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="result-store directory (settled cells land here; a rerun "
        "serves them)",
    )
    parser.add_argument(
        "--out", default=None, metavar="FILE", help="write full JSON"
    )
    parser.add_argument("--quiet", action="store_true", help="no progress lines")


def _cmd_families(args) -> int:
    if args.json:
        from repro.service.serializers import families_payload

        print(json.dumps(families_payload(), indent=2))
        return 0
    rows = []
    for key in all_family_keys():
        spec = family_spec(key)
        rows.append(
            (key, spec.display, f"Theta({spec.beta})", f"Theta({spec.delta})",
             "weak" if spec.weak else "")
        )
    print(format_table(["key", "name", "beta", "Delta", ""], rows))
    return 0


def _cmd_tables(_args) -> int:
    from repro.theory import (
        generate_table1,
        generate_table2,
        generate_table3,
        generate_table4,
    )

    for j, title in ((2, "Table 1 (guest = 2-dim mesh)"),):
        print(
            format_table(
                ["host", "max host size"],
                [(r.host_display, r.cell()) for r in generate_table1(j=j)],
                title=title,
            )
        )
        print()
    print(
        format_table(
            ["host", "max host size"],
            [(r.host_display, r.cell()) for r in generate_table2(j=2)],
            title="Table 2 (guest = 2-dim mesh-of-trees)",
        )
    )
    print()
    print(
        format_table(
            ["host", "max host size"],
            [(r.host_display, r.cell()) for r in generate_table3("de_bruijn")],
            title="Table 3 (guest = butterfly-class)",
        )
    )
    print()
    print(
        format_table(
            ["machine", "beta", "Delta"],
            generate_table4(),
            title="Table 4",
        )
    )
    return 0


def _cmd_figure1(args) -> int:
    from repro.theory import figure1_data

    fields = OPERATIONS["emulate"].schema.fields
    fields["guest"].coerce(args.guest)
    fields["host"].coerce(args.host)
    n = _FIGURE1_N.coerce(args.n)
    f1 = figure1_data(args.guest, args.host, n)
    print(
        format_table(
            ["|H|", "load bound", "bandwidth bound", "envelope"],
            [
                (m, f"{l:10.2f}", f"{b:10.2f}", f"{e:10.2f}")
                for m, l, b, e in f1.rows()
            ],
            title=f"Figure 1: {args.guest} (n={n}) on {args.host} hosts",
        )
    )
    print(
        f"crossover: |H| = {f1.crossover_symbolic.render('n')} "
        f"~ {f1.crossover_numeric:.0f}"
    )
    return 0


def _cmd_bandwidth(args) -> int:
    from repro.bandwidth import beta_bracket, beta_value
    from repro.experiments import Replication
    from repro.routing import measure_bandwidth_many

    p = _params(args)
    engine = p["engine"]
    with _traced(args, "cli.bandwidth"):
        machine = family_spec(p["family"]).build_with_size(p["size"])
        workload = _cli_workload(
            p.get("workload"), args.workload_param, machine.num_nodes
        )
        br = beta_bracket(machine)
        # One run per replicate (seeds seed, seed+1, ...); the first is
        # the measured rate.
        runs = measure_bandwidth_many(
            machine,
            [p["seed"] + i for i in range(p["replicates"])],
            engine=engine,
            workload=workload,
        )
    meas = runs[0]
    rep = Replication(values=tuple(m.rate for m in runs)) if len(runs) > 1 else None
    print(f"machine: {machine!r} [engine={engine}]")
    if workload is not None:
        print(f"workload: {workload!r}")
    print(f"closed form beta:  {beta_value(p['family'], machine.num_nodes):.2f} "
          f"(Theta({family_spec(p['family']).beta}))")
    print(f"certified bracket: [{br.lower:.2f}, {br.upper:.2f}]")
    print(f"measured rate:     {meas.rate:.2f} packets/tick "
          f"({meas.num_messages} msgs in {meas.total_time} ticks)")
    if rep is not None:
        print(f"replicated rate:   {rep}")
        print(f"                   p50 {rep.p50:.3f}, "
              f"mean {rep.mean:.3f} +/- {rep.ci95:.3f} (95% CI)")
    return 0


def _cmd_saturation(args) -> int:
    from repro.routing import saturation_sweep

    p = _params(args)
    with _traced(args, "cli.saturation"):
        machine = family_spec(p["family"]).build_with_size(p["size"])
        workload = _cli_workload(
            p.get("workload"), args.workload_param, machine.num_nodes
        )
        points = saturation_sweep(
            machine,
            rates=p.get("rates"),
            duration=p["duration"],
            seed=p["seed"],
            engine=p["engine"],
            workload=workload,
        )
    title = f"Offered-load sweep: {machine!r} [engine={p['engine']}]"
    if workload is not None:
        title += f" [workload={workload.key}]"
    print(
        format_table(
            ["offered r", "delivered/tick", "mean latency", "p99", "max queue"],
            [
                (
                    f"{p.offered_rate:5.2f}",
                    f"{p.delivered_rate:8.2f}",
                    f"{p.mean_latency:8.1f}",
                    f"{p.p99_latency:8.1f}",
                    p.max_queue,
                )
                for p in points
            ],
            title=title,
        )
    )
    return 0


def _cmd_emulate(args) -> int:
    from repro.emulation import Emulator

    p = _params(args)
    with _traced(args, "cli.emulate"):
        t0 = time.perf_counter()
        guest = family_spec(p["guest"]).build_with_size(p["guest_size"])
        host = family_spec(p["host"]).build_with_size(p["host_size"])
        rep = Emulator(guest, host).run(p["steps"])
        wall = time.perf_counter() - t0
    print(rep)
    print(f"inefficiency I = {rep.inefficiency:.2f} "
          f"({'efficient' if rep.is_efficient else 'INEFFICIENT'})")
    if args.trace:
        # Timed inside the root span: the trace report's total matches.
        print(f"wall seconds: {wall:.6f}")
    return 0


def _cmd_catalog(args) -> int:
    # The positional family list fills both axes; none means the default set.
    both = {"guests": args.families, "hosts": args.families} if args.families else {}
    p = _params(args, **both)
    workload = p.get("workload")
    cells = [job.run() for job in catalog_jobs(p)]
    if args.json:
        from repro.service.serializers import catalog_payload

        payload = catalog_payload(p["guests"], p["hosts"], cells, workload=workload)
        print(json.dumps(payload, indent=2))
        return 0
    exprs = iter(cell["expr"] for cell in cells)
    rows = [[g] + [next(exprs) for _ in p["hosts"]] for g in p["guests"]]
    title = f"workload: {workload}" if workload else None
    print(format_table(["guest \\ host"] + p["hosts"], rows, title=title))
    return 0


def _cmd_workloads(args) -> int:
    if args.json:
        from repro.service.serializers import workloads_payload

        print(json.dumps(workloads_payload(), indent=2))
        return 0
    from repro.workloads import WORKLOADS

    rows = []
    for key in sorted(WORKLOADS):
        spec = WORKLOADS[key]
        params = ", ".join(f"{p.name}={p.default}" for p in spec.params)
        klass = (
            "collective" if spec.collective
            else "quasi-symmetric" if spec.quasi_symmetric
            else "adversarial"
        )
        rows.append((key, spec.display, params, klass, spec.requires))
    print(format_table(["key", "name", "params", "class", "requires"], rows))
    return 0


def _parse_scalar(text: str):
    """CLI axis/set values: JSON scalars when they parse, else strings."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_kv(item: str, flag: str) -> tuple[str, str]:
    key, sep, value = item.partition("=")
    if not sep or not key:
        raise SystemExit(f"{flag} expects key=value, got {item!r}")
    return key, value


def _grid_jobs(args) -> list:
    """Expand the shared ``--families/--sizes/--seeds/--axis/--set`` grid
    arguments into a job list."""
    from repro.harness import expand_grid

    axes: dict[str, list] = {}
    if args.families:
        axes["family"] = list(args.families)
    if args.sizes:
        axes["size"] = list(args.sizes)
    if args.seeds:
        axes["seed"] = list(range(args.seeds))
    for item in args.axis or []:
        key, value = _parse_kv(item, "--axis")
        axes[key] = [_parse_scalar(v) for v in value.split(",")]
    base = dict(
        _parse_kv(item, "--set") for item in args.set or []
    )
    base = {k: _parse_scalar(v) for k, v in base.items()}
    if not axes:
        raise SystemExit(
            "no axes given; use --families/--sizes/--seeds or --axis key=v1,v2"
        )
    return expand_grid(args.job, axes, base)


def _cmd_sweep(args) -> int:
    from repro.harness import ResultStore, canonical_json, local_executor, run_sweep

    opts = _coerced(args, _SWEEP_FIELDS)
    jobs = _grid_jobs(args)
    executor = local_executor(opts["workers"], opts.get("timeout"), opts["retries"])
    store = ResultStore(args.store) if args.store else None
    with _traced(args, "cli.sweep"):
        sweep = run_sweep(
            jobs, executor=executor, store=store, progress=not args.quiet
        )
    rows = []
    for r in sweep.results:
        value = canonical_json(r.value) if r.ok else f"ERROR: {r.error}"
        if len(value) > 60:
            value = value[:57] + "..."
        rows.append(
            (
                r.job.label(),
                "cache" if r.cached else f"{r.seconds:.3f}s",
                value,
            )
        )
    print(
        format_table(
            ["cell", "time", "value"],
            rows,
            title=f"Sweep: {args.job} ({len(jobs)} cells, {sweep.executor})",
        )
    )
    print(
        f"{len(jobs)} cells in {sweep.wall_seconds:.2f}s: "
        f"{sweep.num_cached} cached, {sweep.num_failed} failed, "
        f"{sweep.num_retries} retries, {sweep.num_timeouts} timeouts"
        + (f"; store {sweep.store_stats}" if sweep.store_stats else "")
    )
    pool = [getattr(executor, key, 0) for key in ("requeues", "respawns", "inline_cells")]
    if any(pool):
        print(
            "fabric: {} cells re-queued, {} workers respawned, "
            "{} cells run inline".format(*pool)
        )
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(json.dumps(sweep.as_dict(), indent=2) + "\n")
        print(f"wrote {args.out}")
    return 0 if sweep.ok else 1


def _snapshot_grid(args) -> list:
    """Every catalog cell + the (family x size x seed) bandwidth cells,
    built by the service's own operations so a snapshot cell and the
    matching query share a job hash."""
    both = {"guests": args.families, "hosts": args.families} if args.families else {}
    catalog = OPERATIONS["catalog"].schema.validate(both)
    bandwidth = OPERATIONS["bandwidth"]
    jobs = catalog_jobs(catalog)
    for family in catalog["guests"]:
        for size in args.sizes:
            for seed in range(args.seeds):
                params = bandwidth.schema.validate({
                    "family": family, "size": size, "seed": seed,
                    "engine": args.engine,
                })
                jobs.append(bandwidth.job(params))
    return jobs


def _cmd_snapshot_build(args) -> int:
    from repro.fabric import build_snapshot
    from repro.harness import ResultStore, local_executor, run_sweep

    workers = _SNAPSHOT_WORKERS.coerce(args.workers)
    jobs = _snapshot_grid(args)
    executor = local_executor(workers)
    store = ResultStore(args.store) if args.store else None
    with _traced(args, "cli.snapshot_build"):
        sweep = run_sweep(
            jobs, executor=executor, store=store, progress=not args.quiet
        )
        if not sweep.ok:
            first_job, error = sweep.errors()[0]
            raise SystemExit(
                f"error: {sweep.num_failed} cells failed; first: "
                f"{first_job.label()}: {error}"
            )
        meta = build_snapshot(
            sweep.results,
            args.out,
            extra_meta={
                "families": sorted(
                    {j.spec["family"] for j in jobs if "family" in j.spec}
                ),
                "sizes": list(args.sizes),
                "seeds": args.seeds,
            },
        )
    print(
        f"snapshot {args.out}: {meta['num_records']} cells "
        f"({sweep.num_cached} from store, "
        f"{len(jobs) - sweep.num_cached} computed) "
        f"in {sweep.wall_seconds:.2f}s [salt {meta['salt']}]"
    )
    print(f"serve it: python -m repro serve --snapshot {args.out}")
    return 0


def _cmd_snapshot_info(args) -> int:
    from repro.fabric import CatalogSnapshot

    with CatalogSnapshot(args.file) as snap:
        info = snap.info()
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    rows = [(key, info[key]) for key in sorted(info) if key != "fns"]
    for fn, count in sorted(info.get("fns", {}).items()):
        rows.append((f"cells[{fn}]", count))
    print(format_table(["field", "value"], rows, title=f"Snapshot: {args.file}"))
    return 0


def _cmd_serve(args) -> int:
    options = _coerced(args, _SERVE_FIELDS)
    workers = options.pop("workers")
    options.update(
        host=args.host,
        port=_PORT.coerce(args.port),
        store=args.store,
        verbose=args.verbose,
        trace=args.trace,
        snapshot=args.snapshot,
    )
    if workers > 1:
        from repro.service.prefork import serve_prefork

        return serve_prefork(
            workers=workers, metrics_dir=args.metrics_dir, **options
        )
    # --workers 1 is byte-identical to the pre-prefork single process
    # path: same serve(), same defaults, same output.
    from repro.service.server import serve

    return serve(**options)


def _cmd_loadtest(args) -> int:
    from repro.loadgen import resolve_mix, run_closed_loop, run_open_loop

    port = _PORT.coerce(args.port)
    mix_size = None if args.mix_size is None else _MIX_SIZE.coerce(args.mix_size)
    load = _coerced(args, _LOAD_FIELDS)
    try:
        mix = resolve_mix(
            args.mix, size=mix_size, cold_fraction=args.cold_fraction
        )
    except KeyError as exc:
        raise SystemExit(f"error: {exc.args[0]}") from None
    if args.mode == "open" and "rate" not in load:
        raise SystemExit("error: --mode open requires --rate "
                         "(target offered requests/second)")
    if args.mode == "closed":
        load.pop("rate", None)
        result = run_closed_loop(args.host, port, mix, seed=args.seed, **load)
    else:
        result = run_open_loop(args.host, port, mix, seed=args.seed, **load)
    if not result.answered:
        raise SystemExit(
            f"error: no request to {args.host}:{port} was answered "
            f"in {result.requests} attempts"
        )
    record = result.as_dict()
    if args.json:
        print(json.dumps(record, indent=2))
        return 0
    rows = [
        ("mode", record["mode"]),
        ("mix", record["mix"]),
        ("connections", record["connections"]),
        ("requests", record["requests"]),
        ("errors", record["errors"]),
        ("wall seconds", record["wall_seconds"]),
        ("achieved rps", record["achieved_rps"]),
    ]
    if "offered_rps" in record:
        rows.insert(6, ("offered rps", record["offered_rps"]))
        rows.append(("unsent", record["unsent"]))
    for key in ("latency_ms", "service_ms", "send_lag_ms"):
        if key not in record:
            continue
        summary = record[key]
        rows.append((
            key.replace("_ms", " (ms)"),
            f"p50={summary['p50']} p95={summary['p95']} "
            f"p99={summary['p99']} max={summary['max']}",
        ))
    print(format_table(
        ["field", "value"], rows,
        title=f"loadtest {args.host}:{port}",
    ))
    if record["mode"] == "open" and record["unsent"]:
        print(f"warning: {record['unsent']} scheduled arrivals were never "
              "sent (overloaded past --duration + overrun budget); "
              "percentiles are lower bounds")
    return 0


def _cmd_trace(args) -> int:
    from repro.obs import load_report

    try:
        report = load_report(args.file)
    except FileNotFoundError:
        raise SystemExit(f"error: no such trace file: {args.file}") from None
    if args.json:
        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render(max_depth=args.depth, min_ms=args.min_ms))
    return 0


def _cmd_reproduce(args) -> int:
    from repro.reporting import reproduce_all

    summary = reproduce_all(args.out, quick=args.quick, only=args.only or None)
    for key, info in summary["experiments"].items():
        print(f"  {key:14s} {info['seconds']:7.2f}s  {info['description']}")
    print(f"artifacts written to {args.out}/")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    ap = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    fam = _add_operation(sub, "families", _cmd_families)
    fam.add_argument(
        "--json", action="store_true",
        help="machine-readable output (same shape as GET /v1/families)",
    )

    wl = _add_operation(sub, "workloads", _cmd_workloads)
    wl.add_argument(
        "--json", action="store_true",
        help="machine-readable output (same shape as GET /v1/workloads)",
    )

    sub.add_parser("tables", help="print Tables 1-4").set_defaults(fn=_cmd_tables)

    f1 = sub.add_parser("figure1", help="print Figure-1 series")
    f1.add_argument("--guest", default="de_bruijn")
    f1.add_argument("--host", default="mesh_2")
    _add_field(f1, _FIGURE1_N)
    f1.set_defaults(fn=_cmd_figure1)

    for name, fn in (("bandwidth", _cmd_bandwidth), ("saturation", _cmd_saturation)):
        parser = _add_operation(sub, name, fn)
        parser.add_argument(
            "--workload-param", action="append", dest="workload_param",
            metavar="KEY=VALUE",
            help="scenario parameter override, e.g. hot_fraction=0.7 "
            "(repeatable)",
        )
        _add_trace_flag(parser)

    _add_trace_flag(_add_operation(sub, "emulate", _cmd_emulate))

    cat = _add_operation(sub, "catalog", _cmd_catalog, skip=("guests", "hosts"))
    cat.add_argument(
        "families", nargs="*",
        help="family keys for both axes (default: a representative set)",
    )
    cat.add_argument(
        "--json", action="store_true",
        help="machine-readable output (same shape as GET /v1/catalog)",
    )

    from repro.harness.jobs import BUILTIN_JOBS

    sw = sub.add_parser(
        "sweep",
        help="run a parameter grid, resumable through --store",
        description=(
            "Expand a cartesian grid of job specs and run it through the "
            "sweep harness (repro.harness).  With --store DIR each cell is "
            "cached by content hash as it settles: every cell whose "
            "progress line printed is in the store, so rerunning an "
            "interrupted sweep with the same store executes only the rest. "
            "--workers N > 1 fans cells out over N forked fabric workers "
            "(docs/FABRIC.md) with bit-identical results; a worker that dies "
            "costs a retry of its cell, not the sweep. "
            f"Registered job aliases: {', '.join(sorted(BUILTIN_JOBS))}; "
            "any 'module:callable' job function also works."
        ),
    )
    _add_grid_flags(sw)
    for field in _SWEEP_FIELDS:
        _add_field(sw, field)
    _add_trace_flag(sw)
    sw.set_defaults(fn=_cmd_sweep)

    sn = sub.add_parser(
        "snapshot",
        help="build/inspect memory-mapped catalog snapshots",
        description=(
            "A snapshot precomputes a grid of query cells into one "
            "read-optimized, checksummed, mmap-able file the service "
            "mounts as its fastest cache tier (serve --snapshot FILE; "
            "responses report meta.cache == 'snapshot'). "
            "See docs/FABRIC.md."
        ),
    )
    snsub = sn.add_subparsers(dest="snapshot_command", required=True)
    snb = snsub.add_parser(
        "build",
        help="precompute a grid into a snapshot",
        description=(
            "Run every catalog cell and the family x size x seed bandwidth "
            "cells through the sweep harness on --workers forked fabric "
            "workers, as 'repro sweep' runs them, and freeze the values "
            "into one snapshot file.  With --store DIR an interrupted "
            "build resumes from the store."
        ),
    )
    snb.add_argument(
        "--out", required=True, metavar="FILE", help="snapshot file to write"
    )
    snb.add_argument(
        "--families", nargs="*", default=[],
        help="family keys (default: the service catalog set)",
    )
    snb.add_argument(
        "--sizes", type=int, nargs="*", default=[64, 256],
        help="bandwidth cell sizes",
    )
    snb.add_argument(
        "--seeds", type=int, default=1, metavar="N",
        help="bandwidth cell seeds 0..N-1",
    )
    _add_field(snb, OPERATIONS["bandwidth"].schema.fields["engine"])
    _add_field(snb, _SNAPSHOT_WORKERS)
    snb.add_argument(
        "--store", default=None, metavar="DIR",
        help="result-store directory (reuses already-computed cells; an "
        "interrupted build resumes from it)",
    )
    snb.add_argument("--quiet", action="store_true", help="no progress lines")
    _add_trace_flag(snb)
    snb.set_defaults(fn=_cmd_snapshot_build)
    sni = snsub.add_parser("info", help="print a snapshot's metadata")
    sni.add_argument("file", help="snapshot file")
    sni.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    sni.set_defaults(fn=_cmd_snapshot_info)

    sv = sub.add_parser(
        "serve",
        help="run the JSON query service over HTTP",
        description=(
            "Start a long-lived ThreadingHTTPServer exposing the core "
            "queries as JSON endpoints (/healthz, /metrics, /v1/families, "
            "/v1/workloads, /v1/bandwidth, /v1/catalog, /v1/emulate, "
            "/v1/saturation). "
            "Responses are served through an in-process LRU+TTL cache "
            "backed by the sweep-harness result store when --store is "
            "given; SIGTERM/SIGINT drain in-flight requests before exit. "
            "See docs/SERVICE.md."
        ),
    )
    sv.add_argument("--host", default="127.0.0.1")
    _add_field(sv, _PORT)
    sv.add_argument(
        "--store", default=None, metavar="DIR",
        help="result-store directory (tier-2 cache, shared with sweeps)",
    )
    for field in _SERVE_FIELDS:
        _add_field(sv, field)
    sv.add_argument(
        "--metrics-dir", default=None, metavar="DIR", dest="metrics_dir",
        help="directory for per-worker metrics files in prefork mode "
        "(default: a temp dir removed at exit; ignored with --workers 1)",
    )
    sv.add_argument("--verbose", action="store_true", help="access logging")
    sv.add_argument(
        "--snapshot", default=None, metavar="FILE",
        help="memory-mapped catalog snapshot (tier-0 cache; build with "
        "'repro snapshot build')",
    )
    _add_trace_flag(sv)
    sv.set_defaults(fn=_cmd_serve)

    lt = sub.add_parser(
        "loadtest",
        help="drive a running service with synthetic load",
        description=(
            "Closed-loop (K connections, back-to-back requests: measures "
            "capacity) or open-loop (Poisson arrivals at --rate, latency "
            "measured from the scheduled send time so queueing delay is "
            "never coordinated-omitted) load against a running "
            "`repro serve`.  See docs/LOADTEST.md."
        ),
    )
    lt.add_argument("--host", default="127.0.0.1")
    _add_field(lt, _PORT)
    lt.add_argument(
        "--mode", choices=["closed", "open"], default="closed",
        help="closed = capacity probe; open = latency under offered load",
    )
    lt.add_argument(
        "--mix", default="warm_bandwidth",
        help="request mix from the loadgen registry "
        "(warm_bandwidth, mixed, health)",
    )
    _add_field(lt, _MIX_SIZE)
    lt.add_argument(
        "--cold-fraction", type=float, default=None, dest="cold_fraction",
        help="fraction of requests with a fresh seed, forcing a full "
        "compute ('mixed' mix only)",
    )
    for field in _LOAD_FIELDS:
        _add_field(lt, field)
    lt.add_argument("--seed", type=int, default=0,
                    help="request-sequence seed (what gets sent is "
                    "deterministic given the mix and this seed)")
    lt.add_argument("--json", action="store_true",
                    help="machine-readable result record")
    lt.set_defaults(fn=_cmd_loadtest)

    tr = sub.add_parser(
        "trace",
        help="inspect span trace files (see docs/OBSERVABILITY.md)",
        description=(
            "Aggregate a JSON-lines span trace (written by --trace on "
            "bandwidth/saturation/emulate/sweep/serve, or by "
            "repro.obs.tracing) into a self-time/cumulative tree report."
        ),
    )
    trsub = tr.add_subparsers(dest="trace_command", required=True)
    trr = trsub.add_parser("report", help="print the timing tree")
    trr.add_argument("file", help="trace file (JSON lines)")
    trr.add_argument("--json", action="store_true",
                     help="machine-readable report")
    trr.add_argument("--depth", type=int, default=None,
                     help="deepest tree level to print")
    trr.add_argument("--min-ms", type=float, default=0.0, dest="min_ms",
                     help="hide subtrees with cumulative time below this")
    trr.set_defaults(fn=_cmd_trace)

    rep = sub.add_parser("reproduce", help="run all experiments, write JSON")
    rep.add_argument("--out", default="results")
    rep.add_argument("--quick", action="store_true")
    rep.add_argument("--only", nargs="*", help="subset of experiment ids")
    rep.set_defaults(fn=_cmd_reproduce)
    return ap


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output piped into a pager/head that closed early: not an error.
        return 0
    except KeyboardInterrupt:
        # Ctrl-C: one line and the shell's 128 + SIGINT status.  A sweep
        # has already stored every cell whose progress line printed.
        print("error: interrupted", file=sys.stderr)
        return 130
    except Exception as exc:
        # Input a schema rejects, a domain ValueError (a bad snapshot,
        # a spec the computation refuses) or a capability this host
        # lacks: one clean line, exit 1.  Anything else is a bug.
        if client_error(exc) is None:
            raise
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
