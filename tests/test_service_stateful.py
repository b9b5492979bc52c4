"""Stateful (rule-based) property test of the service cache tiers.

A Hypothesis :class:`RuleBasedStateMachine` interleaves warm/cold
queries, fake-clock TTL expiry, concurrent identical requests, cache
restarts (the memory-tier consequence of a drain/redeploy cycle), and
memory-tier pressure against one :class:`QueryService` over a shared
on-disk store.  The single invariant, checked after every step: **no
sequence of cache transitions may ever change an answer** -- whatever
tier a response comes from, its body equals the cold-computed
reference for that query.

The machine drives :meth:`QueryService.handle` directly (the HTTP
layer is a pass-through tested elsewhere) and injects a fake clock
into the memory tier so TTL expiry is a deliberate rule rather than a
wall-clock race.
"""

from __future__ import annotations

import tempfile
import threading

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)
from hypothesis.strategies import floats, integers, sampled_from

from repro.harness import Job, ResultStore, SerialExecutor
from repro.routing import DEFAULT_ENGINE
from repro.service import QueryService, TTLCache

TTL = 30.0
CACHE_SIZE = 4  # small on purpose: eviction pressure is part of the test

#: The query universe: small machines so cold compute is cheap, more
#: distinct queries than memory-cache slots so eviction happens.
QUERIES = [
    ("mesh_2", 8), ("mesh_2", 16), ("tree", 8), ("tree", 16),
    ("de_bruijn", 8), ("de_bruijn", 16), ("butterfly", 8),
]

_reference_cache: dict[tuple[str, int], dict] = {}


def reference_value(family: str, size: int) -> dict:
    """The cold truth: what the compute path must produce for a query.

    Computed once per (family, size) through the same harness job the
    service builds in ``_h_bandwidth`` (seed/engine defaults applied),
    bypassing every cache tier.
    """
    key = (family, size)
    if key not in _reference_cache:
        job = Job("measure_bandwidth", {
            "family": family, "size": size, "seed": 0, "engine": DEFAULT_ENGINE,
        })
        result = SerialExecutor().run([job])[0]
        assert result.ok, result.error
        _reference_cache[key] = result.value
    return _reference_cache[key]


class CacheTierMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.now = 0.0
        self.tiers_seen: set[str] = set()

    @initialize()
    def boot(self) -> None:
        self.store = ResultStore(tempfile.mkdtemp(prefix="repro-stateful-"))
        self._fresh_service()

    def _fresh_service(self) -> None:
        self.service = QueryService(store=self.store, cache_size=CACHE_SIZE,
                                    ttl=TTL)
        # Same tier, injectable clock: TTL expiry becomes a rule.
        self.service.cache = TTLCache(
            maxsize=CACHE_SIZE, ttl=TTL, clock=lambda: self.now
        )

    def _query(self, family: str, size: int) -> str:
        status, payload = self.service.handle(
            "GET", "/v1/bandwidth",
            {"family": family, "size": str(size)},
        )
        assert status == 200, payload
        tier = payload["meta"]["cache"]
        assert tier in ("memory", "store", "miss", "coalesced"), tier
        assert payload["result"] == reference_value(family, size), (
            f"tier {tier!r} served a value that differs from cold compute "
            f"for {family}/{size}"
        )
        return tier

    @rule(query=sampled_from(QUERIES))
    def single_query(self, query) -> None:
        self.tiers_seen.add(self._query(*query))

    @rule(query=sampled_from(QUERIES), concurrency=integers(2, 4))
    def concurrent_identical_queries(self, query, concurrency) -> None:
        """N identical requests at once: every one must get the same
        correct answer whether it led the compute, coalesced behind
        the leader, or hit a tier."""
        errors: list[BaseException] = []

        def probe() -> None:
            try:
                self.tiers_seen.add(self._query(*query))
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)

        threads = [threading.Thread(target=probe) for _ in range(concurrency)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, errors[0]

    @rule(dt=floats(min_value=0.1, max_value=2 * TTL))
    def advance_clock(self, dt) -> None:
        """Sometimes past the TTL (memory tier expires, store answers),
        sometimes not (memory entries stay live)."""
        self.now += dt

    @rule()
    def drain_and_restart(self) -> None:
        """A drain/redeploy cycle: the process-local tiers (memory
        cache, single-flight table, metrics) are lost, the disk store
        survives.  Answers must not change across the boundary."""
        self._fresh_service()

    @rule()
    def wipe_memory_tier(self) -> None:
        """Memory tier vanishes mid-flight (e.g. operator flush);
        the store must re-seed it with the same values."""
        self.service.cache.clear()

    @invariant()
    def memory_tier_matches_cold_compute(self) -> None:
        """Every live memory-cache entry equals the cold reference of
        some query we issued -- a torn or cross-keyed entry fails here
        even before the next query would serve it."""
        if not hasattr(self, "service"):
            return
        live = set()
        for family, size in QUERIES:
            job = Job("measure_bandwidth", {
                "family": family, "size": size, "seed": 0, "engine": DEFAULT_ENGINE,
            })
            hit, value = self.service.cache.get(job.job_hash)
            if hit:
                assert value == reference_value(family, size)
                live.add(job.job_hash)
        # No entry outside the query universe can exist.
        assert set(self.service.cache.keys()) <= live

    def teardown(self) -> None:
        if hasattr(self, "service"):
            self.service.cache.clear()


CacheTierMachine.TestCase.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None,
)
TestCacheTiers = CacheTierMachine.TestCase
