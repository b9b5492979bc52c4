"""Span-based tracer: nested monotonic timings, counters, trace ids.

The module keeps **one process-global tracer slot**.  When it is empty
(the default), the public hooks -- :func:`span`, :func:`add`,
:func:`event` -- are strict no-ops: one global load, one ``is None``
test, and (for ``span``) a shared inert context manager.  That is the
entire cost instrumented code pays in production, which is what lets
the routing engine, the harness, and the service carry permanent
instrumentation (see ``benchmarks/bench_obs.py`` for the measured
bound).

When a tracer is installed (:func:`configure`, or the ``tracing``
context manager), ``with span("route.fast", policy=...)`` records a
span: a name, attributes, a monotonic start/duration, and its position
in the **thread-local span stack** (parent id + depth), so concurrent
service requests trace independently.  Finished spans are appended to
the sink as JSON-lines events (:mod:`repro.obs.events`); in-memory
per-name aggregates and counters are kept as well so a live process
(``GET /metrics``) can report span statistics without re-reading the
file.  :mod:`repro.obs.report` turns the event file into a
self-time/cumulative tree.

Span names are dotted ``subsystem.phase`` strings (``route.fast``,
``harness.job``, ``emulate.step``, ``service.request``); see
``docs/OBSERVABILITY.md`` for the naming scheme.

The tracer does not cross ``fork``: the sink is flushed before the
process forks and the child starts with the slot empty, so a forked
worker never re-writes the parent's buffered lines into its file.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.obs.events import EventSink, MemorySink

__all__ = [
    "Tracer",
    "add",
    "configure",
    "current_trace_id",
    "disable",
    "enabled",
    "event",
    "get_tracer",
    "new_trace_id",
    "span",
    "trace_context",
    "tracing",
]


class _NoopSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        """Attribute updates vanish; keeps call sites branch-free."""


_NOOP = _NoopSpan()


class _Span:
    """One live span; becomes a ``{"type": "span"}`` event on exit."""

    __slots__ = (
        "_tracer", "name", "attrs", "span_id", "parent_id", "depth",
        "trace_id", "t0",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: dict | None) -> None:
        self._tracer = tracer
        self.name = name
        self.attrs = attrs

    def set(self, **attrs: Any) -> None:
        """Attach/overwrite attributes (recorded when the span closes)."""
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        state = tracer._state()
        stack = state.stack
        self.parent_id = stack[-1].span_id if stack else 0
        self.depth = len(stack)
        self.trace_id = state.trace_id
        self.span_id = next(tracer._ids)
        stack.append(self)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        duration = time.perf_counter() - self.t0
        self._tracer._state().stack.pop()
        self._tracer._record(self, duration)
        return False


class _ThreadState(threading.local):
    """Per-thread span stack and current trace id."""

    def __init__(self) -> None:
        self.stack: list[_Span] = []
        self.trace_id: str | None = None


class Tracer:
    """Collects spans, counters, and events into a sink + live stats."""

    def __init__(self, sink: Any = None, *, owns_sink: bool = False) -> None:
        self.sink = sink if sink is not None else MemorySink()
        self._owns_sink = owns_sink
        self._local = _ThreadState()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        # name -> [count, total_seconds, max_seconds]
        self._span_stats: dict[str, list[float]] = {}
        self._epoch = time.perf_counter()
        self.sink.write({"type": "meta", "version": 1, "wall": time.time()})

    # -- recording (called from span/event hooks) ---------------------------

    def _state(self) -> _ThreadState:
        return self._local

    def span(self, name: str, attrs: Mapping[str, Any] | None = None) -> _Span:
        """A context manager timing one named region on this thread."""
        return _Span(self, name, dict(attrs) if attrs else None)

    def _record(self, span: _Span, duration: float) -> None:
        with self._lock:
            stats = self._span_stats.get(span.name)
            if stats is None:
                self._span_stats[span.name] = [1, duration, duration]
            else:
                stats[0] += 1
                stats[1] += duration
                stats[2] = max(stats[2], duration)
        record: dict[str, Any] = {
            "type": "span",
            "name": span.name,
            "id": span.span_id,
            "parent": span.parent_id,
            "depth": span.depth,
            "thread": threading.get_ident(),
            "t0": round(span.t0 - self._epoch, 9),
            "dur": round(duration, 9),
        }
        if span.trace_id is not None:
            record["trace"] = span.trace_id
        if span.attrs:
            record["attrs"] = span.attrs
        self.sink.write(record)

    def add(self, name: str, value: float = 1) -> None:
        """Accumulate a named counter (thread-safe, in-memory)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def event(self, name: str, **fields: Any) -> None:
        """Append one freeform event to the sink."""
        record: dict[str, Any] = {
            "type": "event",
            "name": name,
            "t": round(time.perf_counter() - self._epoch, 9),
        }
        trace_id = self._local.trace_id
        if trace_id is not None:
            record["trace"] = trace_id
        if fields:
            record.update(fields)
        self.sink.write(record)

    # -- trace ids -----------------------------------------------------------

    @contextmanager
    def trace(self, trace_id: str) -> Iterator[str]:
        """Tag every span/event on this thread with ``trace_id``."""
        state = self._local
        previous = state.trace_id
        state.trace_id = trace_id
        try:
            yield trace_id
        finally:
            state.trace_id = previous

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Live aggregates: per-span-name count/total/max plus counters."""
        with self._lock:
            return {
                "spans": {
                    name: {
                        "count": int(count),
                        "total_s": round(total, 6),
                        "max_s": round(peak, 6),
                    }
                    for name, (count, total, peak) in sorted(
                        self._span_stats.items()
                    )
                },
                "counters": dict(sorted(self._counters.items())),
            }

    def counters(self) -> dict[str, float]:
        """A consistent snapshot of the accumulated counters."""
        with self._lock:
            return dict(self._counters)

    def close(self) -> None:
        """Flush counters to the sink and close it if this tracer owns it."""
        with self._lock:
            counters = dict(sorted(self._counters.items()))
        self.sink.write({"type": "counters", "values": counters})
        if self._owns_sink:
            self.sink.close()
        else:
            self.sink.flush()


# -- the process-global tracer slot and its strict no-op fast path ----------

_TRACER: Tracer | None = None
_INSTALL_LOCK = threading.Lock()


def enabled() -> bool:
    """Whether a tracer is currently installed."""
    return _TRACER is not None


def get_tracer() -> Tracer | None:
    """The installed tracer, or ``None``.

    Hot loops hoist this into a local once and test ``is not None``
    per iteration, which is cheaper than calling :func:`span`.
    """
    return _TRACER


def span(name: str, **attrs: Any):
    """Time a named region: ``with span("route.fast", policy=p) as sp``.

    Disabled path: returns a shared inert context manager whose
    ``set(**attrs)`` is also a no-op, so call sites never branch.
    """
    tracer = _TRACER
    if tracer is None:
        return _NOOP
    return tracer.span(name, attrs or None)


def add(name: str, value: float = 1) -> None:
    """Accumulate a counter iff tracing is on."""
    tracer = _TRACER
    if tracer is not None:
        tracer.add(name, value)


def event(name: str, **fields: Any) -> None:
    """Record a freeform event iff tracing is on."""
    tracer = _TRACER
    if tracer is not None:
        tracer.event(name, **fields)


def new_trace_id() -> str:
    """A fresh 16-hex-digit trace id (cheap, collision-safe enough)."""
    return uuid.uuid4().hex[:16]


def current_trace_id() -> str | None:
    """The trace id tagged on this thread, if any."""
    tracer = _TRACER
    return tracer._local.trace_id if tracer is not None else None


@contextmanager
def trace_context(trace_id: str) -> Iterator[str]:
    """Tag this thread's spans/events with ``trace_id`` (no-op when off)."""
    tracer = _TRACER
    if tracer is None:
        yield trace_id
        return
    with tracer.trace(trace_id):
        yield trace_id


def configure(
    path: str | Path | None = None,
    sink: Any = None,
    max_bytes: int = 16 * 1024 * 1024,
    backups: int = 2,
) -> Tracer:
    """Install the process-global tracer and return it.

    Exactly one of ``path`` (a JSON-lines file, size-rotated) or
    ``sink`` (any ``write(dict)`` object) may be given; with neither,
    spans aggregate into an in-memory :class:`MemorySink`.  Installing
    over an existing tracer closes the old one first.
    """
    global _TRACER
    if path is not None and sink is not None:
        raise ValueError("pass either path or sink, not both")
    owns = sink is None
    if path is not None:
        sink = EventSink(path, max_bytes=max_bytes, backups=backups)
    with _INSTALL_LOCK:
        if _TRACER is not None:
            _TRACER.close()
        _TRACER = Tracer(sink, owns_sink=owns)
        return _TRACER


def disable() -> None:
    """Uninstall and close the global tracer (idempotent)."""
    global _TRACER
    with _INSTALL_LOCK:
        tracer, _TRACER = _TRACER, None
    if tracer is not None:
        tracer.close()


@contextmanager
def tracing(
    path: str | Path | None = None,
    sink: Any = None,
    max_bytes: int = 16 * 1024 * 1024,
    backups: int = 2,
) -> Iterator[Tracer]:
    """Scoped tracing: configure on entry, flush + uninstall on exit."""
    tracer = configure(path, sink=sink, max_bytes=max_bytes, backups=backups)
    try:
        yield tracer
    finally:
        if _TRACER is tracer:
            disable()


def _flush_before_fork() -> None:
    """Empty the sink's buffer so the child's copy of it holds nothing."""
    tracer = _TRACER
    if tracer is not None:
        tracer.sink.flush()


def _untrace_child() -> None:
    """Start a forked child with no tracer (and a lock nobody holds).

    The parent's tracer is dropped, not closed: closing it would write
    the parent's counters into the parent's file.
    """
    global _TRACER, _INSTALL_LOCK
    _INSTALL_LOCK = threading.Lock()
    _TRACER = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(
        before=_flush_before_fork, after_in_child=_untrace_child
    )
