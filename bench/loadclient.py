"""Stdlib keep-alive HTTP load client: closed and open loop.

The benchmark keeps its own client so that a change to the program's
load generator cannot change how the benchmark measures.  Every request
yields one exact :class:`Reply` record; nothing is sampled.

* **Closed loop** -- each connection sends its next request only after
  the previous reply arrived, so a slow server receives less load.
  Latency is measured from the actual send.
* **Open loop** -- requests follow a fixed schedule of send times.  A
  connection takes the next due request when it is free and waits only
  if it is early, so a stall delays every request scheduled behind it.
  Latency is measured from the *scheduled* send time, which counts that
  queueing delay instead of omitting it; ``lag`` records how late the
  generator actually sent.
"""

from __future__ import annotations

import http.client
import random
import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

__all__ = ["Reply", "closed_loop", "open_loop", "poisson_schedule", "request"]


@dataclass
class Reply:
    """One request's outcome; ``status`` 0 means a transport error."""

    path: str
    status: int
    body: bytes
    scheduled: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        """Seconds from the scheduled send (the actual send in a closed loop)."""
        return self.done - self.scheduled

    @property
    def lag(self) -> float:
        """Seconds the send ran behind its schedule."""
        return self.sent - self.scheduled


class _Connection:
    """One keep-alive connection that reconnects after a transport error."""

    def __init__(self, host: str, port: int, timeout: float) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self.conn: http.client.HTTPConnection | None = None

    def get(self, path: str) -> tuple[int, bytes]:
        if self.conn is None:
            self.conn = http.client.HTTPConnection(self.host, self.port, timeout=self.timeout)
        try:
            self.conn.request("GET", path)
            resp = self.conn.getresponse()
            return resp.status, resp.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None


def request(host: str, port: int, path: str, timeout: float = 30.0) -> Reply:
    """One GET on a fresh connection."""
    conn = _Connection(host, port, timeout)
    try:
        sent = time.perf_counter()
        status, body = conn.get(path)
        return Reply(path, status, body, sent, sent, time.perf_counter())
    finally:
        conn.close()


def _run_threads(targets: Sequence[Callable[[], None]]) -> None:
    threads = [threading.Thread(target=t, daemon=True) for t in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def closed_loop(
    host: str, port: int, paths_per_connection: Sequence[Sequence[str]],
    timeout: float = 30.0,
) -> list[list[Reply]]:
    """Send each connection's paths back to back; replies per connection."""
    out: list[list[Reply]] = [[] for _ in paths_per_connection]

    def client(paths: Sequence[str], replies: list[Reply]) -> None:
        conn = _Connection(host, port, timeout)
        try:
            for path in paths:
                sent = time.perf_counter()
                status, body = conn.get(path)
                replies.append(Reply(path, status, body, sent, sent, time.perf_counter()))
        finally:
            conn.close()

    _run_threads(
        [lambda p=p, r=r: client(p, r) for p, r in zip(paths_per_connection, out)]
    )
    return out


def poisson_schedule(
    rate: float, duration: float, rng: random.Random, choose: Callable[[random.Random], str]
) -> list[tuple[float, str]]:
    """Poisson arrivals at ``rate`` per second over ``duration`` seconds:
    ``(offset, path)`` pairs in send order."""
    schedule = []
    t = rng.expovariate(rate)
    while t < duration:
        schedule.append((t, choose(rng)))
        t += rng.expovariate(rate)
    return schedule


def open_loop(
    host: str, port: int, schedule: Sequence[tuple[float, str]], connections: int,
    timeout: float = 30.0,
) -> list[Reply]:
    """Send ``schedule`` over ``connections`` keep-alive connections;
    replies in schedule order, timed from the scheduled send."""
    replies: list[Reply | None] = [None] * len(schedule)
    lock = threading.Lock()
    cursor = iter(range(len(schedule)))
    t0 = time.perf_counter()

    def client() -> None:
        conn = _Connection(host, port, timeout)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                offset, path = schedule[i]
                due = t0 + offset
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter()
                status, body = conn.get(path)
                replies[i] = Reply(path, status, body, due, sent, time.perf_counter())
        finally:
            conn.close()

    _run_threads([client] * connections)
    return replies  # type: ignore[return-value]
