"""Self-time arithmetic of the bench-side span recorder."""

import pytest

from spans import NULL, Span, SpanRecorder, covered, self_time


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("round") as root:
        clock.now = 1.0
        with rec.span("layer.a"):
            clock.now = 3.0
            with rec.span("layer.b"):
                clock.now = 3.5
        clock.now = 4.0
        with rec.span("layer.b"):
            clock.now = 6.0
        clock.now = 10.0
    assert root.duration == 10.0
    assert rec.self_times() == pytest.approx(
        {"round": 10.0 - 2.5 - 2.0, "layer.a": 2.5 - 0.5, "layer.b": 0.5 + 2.0}
    )
    # Self times partition the root's wall time.
    assert sum(rec.self_times().values()) == pytest.approx(root.duration)
    assert [s.parent for s in rec.spans] == [None, 0, 1, 0]


def test_overlapping_children_are_counted_once():
    parent = Span(0, None, "p", 0.0, 10.0)
    kids = [Span(1, 0, "a", 1.0, 5.0), Span(2, 0, "b", 3.0, 7.0), Span(3, 0, "c", 9.0, 12.0)]
    # [1, 7) plus [9, 10) once clipped to the parent.
    assert self_time(parent, kids) == pytest.approx(10.0 - 6.0 - 1.0)


def test_covered_handles_disjoint_touching_and_empty():
    assert covered(0, 10, []) == 0.0
    assert covered(0, 10, [(2, 3), (3, 4), (6, 8)]) == pytest.approx(4.0)
    assert covered(0, 10, [(-5, -1), (11, 12)]) == 0.0


def test_graft_lays_children_end_to_end_and_cuts_at_parent_end():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("op.remote") as sp:
        clock.now = 5.0
    rec.graft(sp, [("cli.import", 2.0, {}), ("traffic.build", 2.5, {"n": 1}),
                   ("routing.route", 4.0, {}), ("never", 1.0, {})])
    grafted = rec.children(sp)
    assert [(s.name, s.start, s.end) for s in grafted] == [
        ("cli.import", 0.0, 2.0), ("traffic.build", 2.0, 4.5), ("routing.route", 4.5, 5.0),
    ]
    assert all(s.attrs["grafted"] for s in grafted)
    assert grafted[1].attrs["n"] == 1
    assert rec.self_times()["op.remote"] == 0.0


def test_self_time_of_grafted_work_shorter_than_parent():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with rec.span("op.remote") as sp:
        clock.now = 4.0
    rec.graft(sp, [("cli.import", 1.0, {}), ("traffic.build", 2.0, {})])
    assert rec.self_times() == pytest.approx(
        {"op.remote": 1.0, "cli.import": 1.0, "traffic.build": 2.0}
    )


def test_span_closes_when_the_block_raises():
    clock = FakeClock()
    rec = SpanRecorder(clock)
    with pytest.raises(RuntimeError):
        with rec.span("outer"):
            clock.now = 2.0
            raise RuntimeError("boom")
    with rec.span("next"):
        pass
    assert rec.spans[0].end == 2.0
    assert rec.spans[1].parent is None


def test_null_recorder_records_nothing():
    with NULL.span("layer", packets=3) as sp:
        sp.attrs["ticks"] = 1
    assert sp.attrs == {"packets": 3, "ticks": 1}
