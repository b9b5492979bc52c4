"""Closed-loop and open-loop load drivers for the query service.

Two driver shapes, because they answer different questions:

* :func:`run_closed_loop` -- ``K`` concurrent connections, each issuing
  its next request the instant the previous response lands.  The
  offered load adapts to the server: this measures *capacity* (the
  highest sustainable throughput at concurrency ``K``) but, precisely
  because the client waits for the server, it can never observe
  queueing delay -- a stalled server just slows the client down.

* :func:`run_open_loop` -- requests are *scheduled* by a Poisson
  process at a target offered rate, independent of how the server is
  doing, and every latency is measured **from the scheduled send
  time**, not from when the socket write actually happened.  This is
  the fix for *coordinated omission*: a driver that timestamps at
  actual send silently excludes the time a request spent waiting
  behind a stalled connection, reporting a 200 ms p99 for a server
  that made clients wait seconds.  Here a late send simply shows up as
  latency, which is what a real user behind the queue experiences.
  (cf. the HdrHistogram / wrk2 discussions of the same pitfall.)

Both drivers share :class:`~repro.loadgen.mix.RequestMix` for what to
send and :class:`~repro.loadgen.stats.LatencyReservoir` for bounded
latency memory, and both are deterministic in *what* they send given a
seed (timing, of course, is the system under test).

The drivers speak plain ``http.client`` keep-alive connections --
stdlib only, like the service itself.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any

from repro.loadgen.mix import RequestMix
from repro.loadgen.stats import LatencyReservoir

__all__ = ["LoadResult", "run_closed_loop", "run_open_loop"]


@dataclass
class LoadResult:
    """Outcome of one driver run, JSON-ready via :meth:`as_dict`."""

    mode: str
    mix: str
    connections: int
    #: every attempt, answered or not; ``errors`` counts the failed
    #: ones (transport errors and HTTP statuses >= 400)
    requests: int
    errors: int
    wall_seconds: float
    #: answered requests per second; latencies are of answered
    #: requests only
    achieved_rps: float
    latency_ms: dict[str, Any]
    offered_rps: float | None = None
    #: open loop only: completion - actual send (the number a
    #: coordinated-omission-blind driver would report).
    service_ms: dict[str, Any] | None = None
    #: open loop only: how late actual sends ran behind schedule.
    send_lag_ms: dict[str, Any] | None = None
    #: open loop only: arrivals still unsent when the overrun budget
    #: expired (nonzero means the server was overloaded beyond what the
    #: run could measure; treat the percentiles as lower bounds).
    unsent: int = 0
    status_counts: dict[str, int] = field(default_factory=dict)

    @property
    def answered(self) -> int:
        """Requests the server answered with any HTTP status."""
        return self.requests - self.status_counts.get("transport_error", 0)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready record; open-loop-only fields appear only in
        open mode, so closed-loop records stay compact."""
        out: dict[str, Any] = {
            "mode": self.mode,
            "mix": self.mix,
            "connections": self.connections,
            "requests": self.requests,
            "errors": self.errors,
            "wall_seconds": round(self.wall_seconds, 3),
            "achieved_rps": round(self.achieved_rps, 1),
            "latency_ms": self.latency_ms,
            "status_counts": dict(sorted(self.status_counts.items())),
        }
        if self.offered_rps is not None:
            out["offered_rps"] = round(self.offered_rps, 1)
        if self.service_ms is not None:
            out["service_ms"] = self.service_ms
        if self.send_lag_ms is not None:
            out["send_lag_ms"] = self.send_lag_ms
        if self.mode == "open":
            out["unsent"] = self.unsent
        return out


class _Client:
    """One keep-alive connection that reconnects after errors."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str,
                body: bytes | None) -> tuple[int, bool]:
        """``(status, ok)``; drops the connection on transport errors."""
        try:
            if self.conn is None:
                self.conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=self.timeout
                )
            headers = {"Content-Type": "application/json"} if body else {}
            self.conn.request(method, path, body=body, headers=headers)
            resp = self.conn.getresponse()
            resp.read()
            return resp.status, True
        except Exception:
            self.close()
            return 0, False

    def close(self) -> None:
        if self.conn is not None:
            try:
                self.conn.close()
            finally:
                self.conn = None


class _Tally:
    """Thread-safe request/error/status accounting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.answered = 0
        self.errors = 0
        self.status_counts: dict[str, int] = {}

    def record(self, status: int, ok: bool) -> None:
        key = str(status) if ok else "transport_error"
        with self._lock:
            self.requests += 1
            self.answered += ok
            if not ok or status >= 400:
                self.errors += 1
            self.status_counts[key] = self.status_counts.get(key, 0) + 1


def _prime(host: str, port: int, mix: RequestMix, timeout: float) -> None:
    client = _Client(host, port, timeout)
    try:
        for method, path, body in mix.prime_paths():
            client.request(method, path, body)
    finally:
        client.close()


def run_closed_loop(
    host: str,
    port: int,
    mix: RequestMix,
    connections: int = 4,
    duration: float = 5.0,
    seed: int = 0,
    timeout: float = 30.0,
    prime: bool = True,
    reservoir_capacity: int = 8192,
) -> LoadResult:
    """``connections`` workers issue back-to-back requests for ``duration``."""
    if connections < 1:
        raise ValueError(f"connections must be >= 1, got {connections}")
    if prime:
        _prime(host, port, mix, timeout)
    reservoir = LatencyReservoir(reservoir_capacity,
                                 rng=random.Random(seed ^ 0x5EED))
    tally = _Tally()
    start = time.perf_counter()
    deadline = start + duration

    def worker(idx: int) -> None:
        rng = random.Random(seed * 1_000_003 + idx)
        client = _Client(host, port, timeout)
        try:
            while time.perf_counter() < deadline:
                method, path, body = mix.sample(rng)
                t0 = time.perf_counter()
                status, ok = client.request(method, path, body)
                if ok:
                    reservoir.observe(time.perf_counter() - t0)
                tally.record(status, ok)
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(connections)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return LoadResult(
        mode="closed",
        mix=mix.name,
        connections=connections,
        requests=tally.requests,
        errors=tally.errors,
        wall_seconds=wall,
        achieved_rps=tally.answered / wall if wall > 0 else 0.0,
        latency_ms=reservoir.summary_ms(),
        status_counts=tally.status_counts,
    )


def run_open_loop(
    host: str,
    port: int,
    mix: RequestMix,
    rate: float,
    duration: float = 5.0,
    connections: int = 16,
    seed: int = 0,
    timeout: float = 30.0,
    prime: bool = True,
    max_overrun: float = 30.0,
    reservoir_capacity: int = 8192,
) -> LoadResult:
    """Poisson arrivals at ``rate``/s; latency runs from *scheduled* send.

    Arrival times are drawn up front (exponential gaps, deterministic
    given ``seed``) and handed to ``connections`` workers.  A worker
    sleeps until an arrival is due, fires it, and records

    * ``latency``   = completion - scheduled send (honest queueing delay),
    * ``service``   = completion - actual send (what a coordinated-
      omission-blind driver would have reported), and
    * ``send_lag``  = actual send - scheduled send (backlog depth).

    When every connection is busy at an arrival's scheduled time the
    send happens late -- and the wait is *included* in its latency
    rather than silently omitted.  Arrivals still pending
    ``max_overrun`` seconds past the nominal end are abandoned and
    counted in ``unsent`` (the run was overloaded beyond its budget;
    the reported percentiles are then lower bounds).
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if connections < 1:
        raise ValueError(f"connections must be >= 1, got {connections}")
    rng = random.Random(seed)
    arrivals: list[float] = []
    t = rng.expovariate(rate)
    while t < duration:
        arrivals.append(t)
        t += rng.expovariate(rate)
    if prime:
        _prime(host, port, mix, timeout)
    requests = [mix.sample(rng) for _ in arrivals]

    latency = LatencyReservoir(reservoir_capacity,
                               rng=random.Random(seed ^ 0x5EED))
    service = LatencyReservoir(reservoir_capacity,
                               rng=random.Random(seed ^ 0xCAFE))
    send_lag = LatencyReservoir(reservoir_capacity,
                                rng=random.Random(seed ^ 0xBEEF))
    tally = _Tally()
    tally_unsent = [0]
    next_index = [0]
    index_lock = threading.Lock()
    base = time.perf_counter()
    cutoff = base + duration + max_overrun

    def worker() -> None:
        client = _Client(host, port, timeout)
        try:
            while True:
                with index_lock:
                    i = next_index[0]
                    if i >= len(arrivals):
                        return
                    next_index[0] = i + 1
                scheduled = base + arrivals[i]
                now = time.perf_counter()
                if now < scheduled:
                    time.sleep(scheduled - now)
                elif now > cutoff:
                    # Overloaded past the budget: abandon this arrival,
                    # but *count* it so the report cannot hide overload.
                    with index_lock:
                        tally_unsent[0] += 1
                    continue
                method, path, body = requests[i]
                sent = time.perf_counter()
                status, ok = client.request(method, path, body)
                done = time.perf_counter()
                if ok:
                    latency.observe(done - scheduled)
                    service.observe(done - sent)
                    send_lag.observe(sent - scheduled)
                tally.record(status, ok)
        finally:
            client.close()

    threads = [
        threading.Thread(target=worker, daemon=True)
        for _ in range(connections)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    wall = time.perf_counter() - base
    return LoadResult(
        mode="open",
        mix=mix.name,
        connections=connections,
        requests=tally.requests,
        errors=tally.errors,
        wall_seconds=wall,
        achieved_rps=tally.answered / wall if wall > 0 else 0.0,
        offered_rps=rate,
        latency_ms=latency.summary_ms(),
        service_ms=service.summary_ms(),
        send_lag_ms=send_lag.summary_ms(),
        unsent=tally_unsent[0],
        status_counts=tally.status_counts,
    )
