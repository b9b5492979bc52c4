"""Tests for the observability subsystem: tracer, sinks, reports.

The load-bearing guarantees:

* with no tracer installed the instrumentation hooks are strict
  no-ops (same shared span object, nothing written anywhere);
* span nesting (parent ids, depths) is correct per thread, and
  concurrent threads never see each other's stacks;
* the JSON-lines sink round-trips exactly, rotates at the size bound,
  and the reader tolerates a truncated tail but not corruption;
* a fixed-seed ``measure_bandwidth`` produces the same span tree every
  run, so traces are diffable artifacts like everything else here;
* the service echoes ``meta.trace_id`` and folds span stats into
  ``/metrics``; sweeps surface per-job retry/timeout totals;
* a forked process starts with no tracer, so a traced parallel sweep
  writes every parent event exactly once.
"""

from __future__ import annotations

import json
import os
import threading

import pytest

from repro.cli import main
from repro.harness import (
    Job,
    ResultStore,
    SerialExecutor,
    local_executor,
    run_sweep,
)
from repro.obs import (
    EventSink,
    MemorySink,
    Tracer,
    build_report,
    load_report,
    read_events,
)
from repro.obs import trace as obs
from repro.routing import RoutingSimulator, measure_bandwidth, saturation_sweep
from repro.routing.compiled import capability
from repro.service.app import QueryService
from repro.topologies.registry import family_spec

FLAKY = "tests.test_harness:flaky_job"
SLEEPY = "tests.test_harness:sleepy_job"
COUNTING = "tests.test_harness:counting_job"


def span_records(sink: MemorySink) -> list[dict]:
    return [e for e in sink.events if e.get("type") == "span"]


def tree_shape(node: dict) -> tuple:
    """A report node reduced to structure: (name, count, children)."""
    return (
        node["name"],
        node["count"],
        tuple(sorted(tree_shape(c) for c in node["children"])),
    )


# ---------------------------------------------------------------------------
# Tracer core


class TestTracerDisabled:
    def test_hooks_are_strict_noops(self):
        """With no tracer installed, span() hands back one shared inert
        object and add()/event() do nothing observable."""
        assert not obs.enabled()
        assert obs.get_tracer() is None
        first = obs.span("anything", attr=1)
        second = obs.span("else")
        assert first is second  # the shared singleton, no allocation
        with first as sp:
            sp.set(ticks=12)  # must not raise or record anywhere
        obs.add("some.counter", 5)
        obs.event("some.event", detail="x")
        assert obs.current_trace_id() is None
        with obs.trace_context("deadbeef") as tid:
            assert tid == "deadbeef"

    def test_tracing_scope_installs_and_uninstalls(self):
        sink = MemorySink()
        assert not obs.enabled()
        with obs.tracing(sink=sink) as tracer:
            assert obs.enabled()
            assert obs.get_tracer() is tracer
            with obs.span("scoped"):
                pass
        assert not obs.enabled()
        assert [e["name"] for e in span_records(sink)] == ["scoped"]


class TestTracerSpans:
    def test_nesting_records_parent_and_depth(self):
        sink = MemorySink()
        with obs.tracing(sink=sink):
            with obs.span("outer", kind="test") as outer:
                outer.set(extra=True)
                with obs.span("inner"):
                    pass
                with obs.span("inner"):
                    pass
        spans = {e["id"]: e for e in span_records(sink)}
        by_name: dict[str, list[dict]] = {}
        for e in spans.values():
            by_name.setdefault(e["name"], []).append(e)
        (outer_rec,) = by_name["outer"]
        assert outer_rec["depth"] == 0
        assert outer_rec["parent"] == 0
        assert outer_rec["attrs"] == {"kind": "test", "extra": True}
        assert len(by_name["inner"]) == 2
        for inner in by_name["inner"]:
            assert inner["depth"] == 1
            assert inner["parent"] == outer_rec["id"]
            # children are written before the parent closes
            assert inner["t0"] >= outer_rec["t0"]
            assert inner["dur"] <= outer_rec["dur"]

    def test_thread_isolation(self):
        """Spans opened on different threads never adopt each other as
        parents, even when their lifetimes interleave."""
        sink = MemorySink()
        barrier = threading.Barrier(2)

        def worker(label: str) -> None:
            with obs.span(f"root.{label}"):
                barrier.wait()  # both roots open simultaneously
                with obs.span(f"child.{label}"):
                    barrier.wait()

        with obs.tracing(sink=sink):
            threads = [
                threading.Thread(target=worker, args=(name,))
                for name in ("a", "b")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        spans = {e["name"]: e for e in span_records(sink)}
        assert len(spans) == 4
        for label in ("a", "b"):
            child, root = spans[f"child.{label}"], spans[f"root.{label}"]
            assert child["parent"] == root["id"]
            assert child["thread"] == root["thread"]
            assert root["depth"] == 0 and child["depth"] == 1
        assert spans["root.a"]["thread"] != spans["root.b"]["thread"]

    def test_counters_and_stats(self):
        sink = MemorySink()
        with obs.tracing(sink=sink) as tracer:
            obs.add("route.ticks", 40)
            obs.add("route.ticks", 2)
            obs.add("route.calls")
            with obs.span("route.fast"):
                pass
            stats = tracer.stats()
        assert stats["counters"] == {"route.calls": 1, "route.ticks": 42}
        assert stats["spans"]["route.fast"]["count"] == 1
        assert stats["spans"]["route.fast"]["total_s"] >= 0
        # close() flushed the counters into the sink as a record
        tail = [e for e in sink.events if e["type"] == "counters"]
        assert tail and tail[-1]["values"]["route.ticks"] == 42

    def test_trace_context_tags_spans_and_events(self):
        sink = MemorySink()
        with obs.tracing(sink=sink):
            with obs.trace_context("feedface00000001"):
                assert obs.current_trace_id() == "feedface00000001"
                with obs.span("tagged"):
                    obs.event("tagged.event")
            with obs.span("untagged"):
                pass
        events = {e.get("name"): e for e in sink.events if "name" in e}
        assert events["tagged"]["trace"] == "feedface00000001"
        assert events["tagged.event"]["trace"] == "feedface00000001"
        assert "trace" not in events["untagged"]

    def test_new_trace_ids_are_distinct_hex(self):
        ids = {obs.new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(len(t) == 16 and int(t, 16) >= 0 for t in ids)


# ---------------------------------------------------------------------------
# Sinks


class TestEventSink:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        written = [
            {"type": "event", "name": f"e{i}", "payload": {"i": i}}
            for i in range(10)
        ]
        with EventSink(path) as sink:
            for event in written:
                sink.write(event)
        assert list(read_events(path)) == written

    def test_rotation_at_size_boundary(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = EventSink(path, max_bytes=256, backups=2)
        for i in range(100):
            sink.write({"type": "event", "name": "tick", "i": i})
        sink.close()
        assert sink.rotations > 0
        assert path.with_name("trace.jsonl.1").exists()
        # no file exceeds the bound, and nothing beyond `backups` exists
        for candidate in (path, path.with_name("trace.jsonl.1")):
            assert candidate.stat().st_size <= 256
        assert not path.with_name("trace.jsonl.3").exists()
        # the surviving window is contiguous and ends at the last write
        kept = [e["i"] for e in read_events(path)]
        assert kept[-1] == 99
        assert kept == list(range(kept[0], 100))

    def test_reader_skips_truncated_tail_only(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type":"event","name":"ok"}\n{"type":"ev')
        assert [e["name"] for e in read_events(path)] == ["ok"]
        path.write_text('{"type":"event","name":"ok"}\nnot json\n')
        with pytest.raises(ValueError, match="malformed"):
            list(read_events(path))

    def test_memory_sink_is_bounded(self):
        sink = MemorySink(maxlen=4)
        for i in range(10):
            sink.write({"i": i})
        assert [e["i"] for e in sink.events] == [6, 7, 8, 9]
        assert sink.events_written == 10


# ---------------------------------------------------------------------------
# Reports


class TestReport:
    @staticmethod
    def span(sid, name, parent, dur):
        return {
            "type": "span",
            "id": sid,
            "name": name,
            "parent": parent,
            "depth": 0 if not parent else 1,
            "dur": dur,
        }

    def test_self_and_cumulative_time(self):
        report = build_report(
            [
                self.span(1, "leaf", 2, 0.25),
                self.span(2, "mid", 3, 0.5),
                self.span(4, "mid", 3, 0.1),
                self.span(3, "root", 0, 1.0),
                {"type": "event", "name": "blip"},
                {"type": "counters", "values": {"ticks": 7}},
            ]
        )
        root = report.find("root")
        mid = report.find("root", "mid")
        leaf = report.find("root", "mid", "leaf")
        assert root.cum == pytest.approx(1.0)
        assert root.self_time == pytest.approx(0.4)  # 1.0 - (0.5 + 0.1)
        assert mid.count == 2 and mid.cum == pytest.approx(0.6)
        assert mid.self_time == pytest.approx(0.35)
        assert leaf.cum == pytest.approx(0.25)
        assert report.total_seconds == pytest.approx(1.0)
        assert report.counters == {"ticks": 7}
        assert report.event_counts == {"blip": 1}
        assert report.find("root", "nope") is None

    def test_render_and_json_shape(self):
        report = build_report(
            [self.span(1, "child", 2, 0.2), self.span(2, "top", 0, 0.9)]
        )
        text = report.render()
        assert "top" in text and "child" in text
        assert "total 900.000 ms over 2 spans" in text
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["tree"][0]["name"] == "top"
        assert payload["tree"][0]["children"][0]["name"] == "child"
        # depth / min_ms filters prune the child line
        assert "child" not in report.render(max_depth=0)
        assert "child" not in report.render(min_ms=500.0)

    def test_load_report_from_traced_run(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.tracing(path):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
            obs.add("widgets", 3)
        report = load_report(path)
        assert report.find("outer", "inner").count == 1
        assert report.counters == {"widgets": 3}


class TestUntracedTime:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bandwidth", "mesh_2", "--size", "256"],
            ["saturation", "mesh_2", "--size", "64", "--duration", "32"],
            ["emulate", "de_bruijn", "mesh_2", "--guest-size", "256",
             "--host-size", "16", "--steps", "2"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_cli_root_self_time_is_at_most_a_tenth(self, argv, tmp_path, capsys):
        """A traced command accounts for its wall time: the machine
        build, the table build and each computation are spans, so the
        root's own time stays <= 10% of it."""
        path = tmp_path / "trace.jsonl"
        assert main([*argv, "--trace", str(path)]) == 0
        [root] = load_report(path).roots
        assert root.name == f"cli.{argv[0]}"
        children = [child.name for child in root.children.values()]
        assert "topology.build" in children
        if argv[0] == "emulate":
            assert "emulate.map" in children
        assert root.self_time <= 0.10 * root.cum, root.as_dict()


class TestDeterministicSpanTree:
    def test_fixed_seed_measure_bandwidth_traces_identically(self):
        """Two traced runs of the same seeded measurement yield the
        same span tree (names + counts); only timings may differ.  Each
        run gets a fresh machine, so both build their tables."""

        def traced_shape() -> tuple:
            machine = family_spec("mesh_2").build_with_size(16)
            sink = MemorySink()
            with obs.tracing(sink=sink):
                measure_bandwidth(machine, num_messages=32, seed=7)
            report = build_report(sink.events)
            return tuple(
                sorted(tree_shape(r) for r in (n.as_dict() for n in report.roots))
            )

        first, second = traced_shape(), traced_shape()
        assert first == second
        names = str(first)
        assert "measure_bandwidth" in names
        assert "measure.sample" in names and "measure.plan" in names
        # The default engine names the kernel that ran: the C kernel, or
        # the batched kernel when it cannot build (REPRO_COMPILED=off).
        ran = "compiled" if capability()["available"] else "fast"
        assert f"route.{ran}" in names
        assert "traffic.build" in names and "tables.dense" in names

    def test_beta_bracket_spans_its_two_halves(self):
        """The bracket is one span with the routing congestion (which
        covers the table build it triggers) and the cut bound as its
        only children."""
        from repro.bandwidth import beta_bracket

        machine = family_spec("mesh_2").build_with_size(16)
        sink = MemorySink()
        with obs.tracing(sink=sink):
            beta_bracket(machine)
        report = build_report(sink.events)
        shapes = [tree_shape(r) for r in (n.as_dict() for n in report.roots)]
        assert shapes == [
            (
                "bandwidth.bracket",
                1,
                (
                    ("bandwidth.congestion", 1, (("tables.dense", 1, ()),)),
                    ("bandwidth.cuts", 1, ()),
                ),
            )
        ]

    def test_saturation_sweep_spans_its_traffic_build(self):
        """The sweep has a root span, and building its default traffic
        is a child of it rather than untraced self time."""
        machine = family_spec("mesh_2").build_with_size(16)
        sink = MemorySink()
        with obs.tracing(sink=sink):
            saturation_sweep(machine, rates=[0.5], duration=16, seed=1)
        report = build_report(sink.events)
        assert report.find("saturation_sweep", "traffic.build").count == 1
        assert report.find("saturation_sweep", "route.batch").count == 1

    @pytest.mark.parametrize("validate", [False, True])
    def test_route_batch_span_names_the_engine_that_ran(self, validate):
        """``route.batch`` reports the resolved engine, never ``auto``,
        and its child dispatch spans agree."""
        machine = family_spec("mesh_2").build_with_size(16)
        sim = RoutingSimulator(machine, validate=validate)
        sink = MemorySink()
        with obs.tracing(sink=sink):
            sim.route_batch([[[0, 15], [3, 12]], [[5, 9]]])
        spans = [e for e in sink.events if e["type"] == "span"]
        [batch] = [e for e in spans if e["name"] == "route.batch"]
        ran = sim._resolve_engine()
        assert ran != "auto"
        assert batch["attrs"]["engine"] == ran
        if ran == "compiled":  # routed run by run, one dispatch each
            children = [e["name"] for e in spans if e["parent"] == batch["id"]]
            # The first dispatch builds the dense tables it routes over.
            assert children == ["tables.dense", "route.compiled", "route.compiled"]


# ---------------------------------------------------------------------------
# Service integration


class TestServiceTracing:
    def test_trace_id_echoed_and_metrics_fold_stats(self, tmp_path):
        service = QueryService(store=ResultStore(tmp_path))
        sink = MemorySink()
        with obs.tracing(sink=sink):
            status, payload = service.handle(
                "GET", "/v1/bandwidth", {"family": "mesh_2", "size": "16"}
            )
            assert status == 200
            trace_id = payload["meta"]["trace_id"]
            assert len(trace_id) == 16
            mstatus, metrics = service.handle("GET", "/metrics")
        assert mstatus == 200
        assert "service.request" in metrics["trace"]["spans"]
        # every span/event of the request carries its trace id
        tagged = [e for e in sink.events if e.get("trace") == trace_id]
        assert any(
            e.get("name") == "service.request" for e in tagged
        )

    def test_no_trace_id_when_disabled(self, tmp_path):
        service = QueryService(store=ResultStore(tmp_path))
        status, payload = service.handle(
            "GET", "/v1/bandwidth", {"family": "mesh_2", "size": "16"}
        )
        assert status == 200
        assert "trace_id" not in payload["meta"]
        mstatus, metrics = service.handle("GET", "/metrics")
        assert mstatus == 200
        assert metrics["trace"] is None


# ---------------------------------------------------------------------------
# Harness integration: retries, timeouts, job events


class TestSweepRetryTimeoutTotals:
    def test_retries_surface_in_sweep_result(self, tmp_path):
        marker = tmp_path / "marks"
        jobs = [
            Job(FLAKY, {"marker": str(marker), "fail_times": 2}),
            Job(COUNTING, {"x": 1}),
        ]
        sweep = run_sweep(jobs, executor=SerialExecutor(retries=3))
        assert sweep.num_failed == 0
        assert sweep.num_retries == 2
        assert sweep.num_timeouts == 0
        record = sweep.as_dict()
        assert record["num_retries"] == 2
        assert record["num_timeouts"] == 0

    def test_timeouts_counted_serial_and_parallel(self, tmp_path):
        jobs = [Job(SLEEPY, {"seconds": 5.0})]
        serial = run_sweep(jobs, executor=SerialExecutor(timeout=0.05, retries=1))
        assert serial.num_failed == 1
        assert serial.num_timeouts == 2  # both attempts hit the deadline
        assert serial.num_retries == 1
        # two jobs + two workers so each fabric worker times out a cell
        # (one worker runs in process, on the serial executor)
        pair = [Job(SLEEPY, {"seconds": 5.0}), Job(SLEEPY, {"seconds": 6.0})]
        parallel = run_sweep(
            pair, executor=local_executor(2, timeout=0.05, retries=1)
        )
        assert parallel.executor == "fabric[2]"
        assert parallel.num_failed == 2
        assert parallel.num_timeouts == 4  # both attempts of both cells
        assert parallel.num_retries == 2

    def test_job_lifecycle_events_when_traced(self, tmp_path):
        marker = tmp_path / "marks"
        sink = MemorySink()
        with obs.tracing(sink=sink):
            sweep = run_sweep(
                [Job(FLAKY, {"marker": str(marker), "fail_times": 1})],
                executor=SerialExecutor(retries=2),
            )
        assert sweep.num_failed == 0
        names = [e["name"] for e in sink.events if e.get("type") == "event"]
        assert "sweep.started" in names and "sweep.finished" in names
        assert "job.started" in names
        assert "job.retried" in names
        assert "job.finished" in names
        finished = next(
            e for e in sink.events if e.get("name") == "sweep.finished"
        )
        assert finished["retries"] == 1

    def test_store_hits_emit_cache_events(self, tmp_path):
        store = ResultStore(tmp_path / "store")
        jobs = [Job(COUNTING, {"x": 41})]
        run_sweep(jobs, store=store)
        sink = MemorySink()
        with obs.tracing(sink=sink):
            sweep = run_sweep(jobs, store=store)
        assert sweep.num_cached == 1
        hits = [e for e in sink.events if e.get("name") == "job.cache_hit"]
        assert hits and hits[0]["tier"] == "store"


class TestTracerAcrossFork:
    def test_forked_child_starts_untraced(self, tmp_path):
        path = tmp_path / "fork.jsonl"
        with obs.tracing(path):
            obs.event("before.fork")
            pid = os.fork()
            if pid == 0:  # the child: report whether a tracer came along
                os._exit(0 if obs.get_tracer() is None else 1)
            _, status = os.waitpid(pid, 0)
            assert obs.enabled(), "the parent keeps its tracer"
        assert os.waitstatus_to_exitcode(status) == 0
        names = [e.get("name") for e in read_events(path)]
        assert names.count("before.fork") == 1

    def test_traced_parallel_sweep_logs_each_event_once(self, tmp_path):
        """Forked workers must not re-write the parent's buffered trace
        lines: one ``sweep.started``, one root, a file that parses."""
        path = tmp_path / "sweep.jsonl"
        code = main(
            ["sweep", "measure_bandwidth",
             "--families", "linear_array", "tree", "mesh_2", "de_bruijn",
             "--sizes", "16", "32", "--seeds", "10",
             "--workers", "2", "--quiet", "--trace", str(path)]
        )
        assert code == 0
        events = list(read_events(path))  # raises on an interleaved line
        names = [e.get("name") for e in events if e.get("type") == "event"]
        assert names.count("sweep.started") == 1
        assert names.count("sweep.finished") == 1
        roots = [
            e for e in events
            if e.get("type") == "span" and e.get("parent") == 0
        ]
        assert [r["name"] for r in roots] == ["cli.sweep"]
        report = load_report(path)
        assert report.num_spans == len(
            [e for e in events if e.get("type") == "span"]
        )


class TestStoreStatsThreadSafety:
    def test_concurrent_recording_loses_no_counts(self, tmp_path):
        store = ResultStore(tmp_path)
        per_thread, threads = 500, 8

        def hammer() -> None:
            for _ in range(per_thread):
                store.stats.record(hits=1, misses=1, evictions=1)

        workers = [threading.Thread(target=hammer) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        snapshot = store.stats.as_dict()
        assert snapshot["hits"] == per_thread * threads
        assert snapshot["misses"] == per_thread * threads
        assert snapshot["evictions"] == per_thread * threads


class TestTracerObject:
    def test_standalone_tracer_does_not_touch_global(self):
        tracer = Tracer()
        with tracer.span("local.work"):
            pass
        tracer.add("local.counter", 2)
        assert not obs.enabled()
        assert tracer.counters() == {"local.counter": 2}
        assert tracer.stats()["spans"]["local.work"]["count"] == 1
