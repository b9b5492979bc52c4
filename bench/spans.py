"""Bench-side span recorder and self-time arithmetic.

The benchmark times each call into a layer's public function from the
outside: ``with rec.span("routing.route"): sim.route(...)``.  Spans nest
through a stack, so a span opened inside another becomes its child.
Work that runs in another process (a CLI subprocess, a pool worker, the
HTTP server) cannot be spanned from here; the benchmark re-runs the same
layers in-process and *grafts* their measured durations under the span
that timed the remote work.

A span's self time is its duration minus the part of its interval that
its children cover; the per-layer ledger is the sum of self times by
span name.  Spans stay in memory and are written out when the run ends.
The recorder is single-threaded: open spans from one thread only.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

__all__ = ["NULL", "NullRecorder", "Span", "SpanRecorder", "covered", "self_time"]


@dataclass
class Span:
    """One timed interval: ``[start, end)`` seconds on the recorder clock."""

    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": self.attrs,
        }


def covered(lo: float, hi: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[lo, hi)`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(lo, a), min(hi, b)) for a, b in intervals if min(hi, b) > max(lo, a)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """``span``'s duration minus the part its children cover."""
    return span.duration - covered(
        span.start, span.end, ((c.start, c.end) for c in children)
    )


class SpanRecorder:
    """Keeps every span of a run in memory."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Time the block as a child of the innermost open span."""
        parent = self._stack[-1].id if self._stack else None
        sp = Span(len(self.spans), parent, name, self.clock(), attrs=dict(attrs))
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def graft(self, parent: Span, children: Iterable[tuple[str, float, dict]]) -> None:
        """Add ``(name, seconds, attrs)`` children measured elsewhere.

        They are laid end to end from ``parent.start`` and cut off at
        ``parent.end``, so grafted work never claims more time than the
        parent took.  Grafted spans carry ``attrs["grafted"] = True``.
        """
        at = parent.start
        for name, seconds, attrs in children:
            end = min(at + seconds, parent.end)
            if end <= at:
                break
            self.spans.append(
                Span(len(self.spans), parent.id, name, at, end, {**attrs, "grafted": True})
            )
            at = end

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent == span.id]

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> dict[str, float]:
        """Total self time in seconds by span name."""
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + self_time(s, kids.get(s.id, ()))
        return out

    def as_records(self) -> list[dict[str, Any]]:
        return [s.as_dict() for s in self.spans]


class NullRecorder:
    """Recorder stand-in for untraced code paths: records nothing."""

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        yield Span(-1, None, name, 0.0, attrs=dict(attrs))


NULL = NullRecorder()
