"""``service``: one default single-process ``repro serve`` with a result
store and a catalog snapshot, driven over keep-alive HTTP.

The warm phase is a closed loop on two connections over four keys the
memory tier holds: read traffic that shares its inputs and does no
compute, so HTTP handling, cache tiers and metrics are the cost.  Cold
requests each carry a fresh seed and share nothing, so traffic build
and the rest of a measurement dominate.  Set-up is a boot, from spawn
to the first 200 on ``/healthz``.  The traced round adds open-loop
Poisson traffic over a tier mix as an ungated diagnostic.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import select
import statistics
import subprocess
import sys
import time

from common import (
    ROOT,
    SEED_SPACE,
    Op,
    Workload,
    bandwidth_fields,
    build_machine,
    fields_match,
    measure_layers,
    repro_cli,
    timed,
)
from loadclient import closed_loop, open_loop, poisson_schedule, request
from quantiles import summarize

HOST = "127.0.0.1"
CONNECTIONS = 2
WARM_FAMILIES = ("mesh_2", "de_bruijn", "tree", "xtree")
WARM_SIZE = 256
WARM_PER_CONNECTION = 500
COLD_FAMILY, COLD_SIZE = "mesh_2", 256
COLD_PER_PASS = 4
#: Every VERIFY_EVERY-th cold reply is recomputed in-process.
VERIFY_EVERY = 10
SNAPSHOT_FAMILIES = ("mesh_2", "de_bruijn", "tree", "butterfly")
SNAPSHOT_SIZE = 64
SNAPSHOT_SEEDS = 8
OPEN_RATES = (200, 1000)
OPEN_SECONDS = 8.0
#: Open-loop tier mix: memory, snapshot, and the rest cold.
OPEN_MIX = (0.68, 0.30)
BOOT_TIMEOUT = 60.0


def bandwidth_path(family: str, size: int, seed: int) -> str:
    return f"/v1/bandwidth?family={family}&size={size}&seed={seed}"


def _ms(values) -> dict:
    return summarize([v * 1e3 for v in values])


class Service(Workload):
    name = "service"
    why = "HTTP service: warm closed loop over the memory tier, and cold fresh-seed requests"

    def __init__(self, seed, tally, scratch):
        super().__init__(seed, tally, scratch)
        self.store_dir = scratch / "store"
        self.snapshot = scratch / "catalog.snap"
        self.server: subprocess.Popen | None = None
        self.port = 0
        # Fresh seeds: the ones after the warm keys' seed, so none repeats
        # or hits a warm key (snapshot keys have another size).
        self.cold_seeds = ((seed + k) % SEED_SPACE for k in itertools.count(1))
        self.expected: dict[str, dict] = {}
        self.warm_latencies: list[float] = []
        self.cold_latencies: list[float] = []
        self.cold_to_verify: list[tuple[int, dict]] = []

    # -- server lifecycle ------------------------------------------------------

    def prepare(self) -> None:
        from repro.routing.measure import measure_bandwidth_job

        proc = repro_cli([
            "snapshot", "build", "--out", str(self.snapshot),
            "--families", *SNAPSHOT_FAMILIES, "--sizes", str(SNAPSHOT_SIZE),
            "--seeds", str(SNAPSHOT_SEEDS), "--workers", "1", "--quiet",
        ])
        self.tally.check(proc.returncode == 0, f"snapshot build: {proc.stderr.strip()[-200:]}")
        for family in WARM_FAMILIES:
            spec = {"family": family, "size": WARM_SIZE, "seed": self.seed}
            self.expected[bandwidth_path(family, WARM_SIZE, self.seed)] = measure_bandwidth_job(spec)

    def setup(self, rec) -> None:
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--store", str(self.store_dir), "--snapshot", str(self.snapshot)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
        )
        deadline = time.monotonic() + BOOT_TIMEOUT
        line = ""
        if select.select([self.server.stdout], [], [], BOOT_TIMEOUT)[0]:
            line = self.server.stdout.readline()
        port = re.search(r"http://[\d.]+:(\d+)", line)
        if not self.tally.check(port is not None, f"serve did not start: {line.strip()!r}"):
            raise RuntimeError("the service did not start")
        self.port = int(port.group(1))
        while time.monotonic() < deadline:
            if request(HOST, self.port, "/healthz", timeout=5.0).status == 200:
                return
            time.sleep(0.005)
        self.tally.check(False, "serve never answered /healthz")
        raise RuntimeError("the service did not answer /healthz")

    def _stop(self) -> None:
        if self.server is None:
            return
        proc, self.server = self.server, None
        proc.terminate()
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        self.tally.check(proc.returncode == 0, f"serve exited {proc.returncode} on SIGTERM")

    reset = close = _stop

    # -- replies ---------------------------------------------------------------

    def _reply(self, reply, tier: str, what: str, expected=None):
        """The reply's ``result`` if it is a 200 from ``tier`` (and equals
        ``expected`` when given); counts one operation either way."""
        try:
            payload = json.loads(reply.body) if reply.status == 200 else {}
        except ValueError:
            payload = {}
        result = payload.get("result")
        ok = (
            payload.get("meta", {}).get("cache") == tier
            and result is not None
            and (expected is None or result == expected)
        )
        self.tally.check(ok, f"{what}: status {reply.status}, want a {tier}-tier result")
        return result if ok else None

    def warm(self) -> None:
        for path, want in self.expected.items():
            self._reply(request(HOST, self.port, path), "miss", f"prime {path}", want)

    def _check_warm(self, per_connection) -> None:
        for replies in per_connection:
            for r in replies:
                self._reply(r, "memory", r.path, self.expected[r.path])
                self.warm_latencies.append(r.latency)

    def _check_cold(self, seed: int, reply) -> None:
        result = self._reply(reply, "miss", reply.path)
        self.cold_latencies.append(reply.latency)
        if result is not None and len(self.cold_latencies) % VERIFY_EVERY == 1:
            self.cold_to_verify.append((seed, result))

    # -- the timed phase -------------------------------------------------------

    def pass_ops(self, index: int) -> list[Op]:
        paths = list(self.expected)
        per_connection = [
            [paths[(c + k) % len(paths)] for k in range(WARM_PER_CONNECTION)]
            for c in range(CONNECTIONS)
        ]
        ops = [Op("warm_batch", lambda: closed_loop(HOST, self.port, per_connection),
                  self._check_warm)]
        for _ in range(COLD_PER_PASS):
            seed = next(self.cold_seeds)
            path = bandwidth_path(COLD_FAMILY, COLD_SIZE, seed)
            ops.append(Op("cold", lambda p=path: request(HOST, self.port, p),
                          lambda r, s=seed: self._check_cold(s, r)))
        return ops

    def operation_metrics(self, medians):
        return {
            "service_warm_rps": CONNECTIONS * WARM_PER_CONNECTION / medians["warm_batch"],
            "service_cold_ms": medians["cold"] * 1e3,
        }

    def verify(self, probe) -> None:
        for seed, result in self.cold_to_verify:
            with probe.span("op.cold"):
                machine = build_machine(probe, COLD_FAMILY, COLD_SIZE)
                routed = measure_layers(probe, machine, seed, result["num_messages"])
            ok = result.get("family") == COLD_FAMILY and fields_match(
                result, bandwidth_fields(machine, routed, result["num_messages"])
            )
            self.tally.check(ok, f"cold seed {seed}: reply differs from in-process recomputation")
        if self.warm_latencies:
            self.notes["service.warm_latency_ms"] = _ms(self.warm_latencies)
        if self.cold_latencies:
            self.notes["service.cold_latency_ms"] = _ms(self.cold_latencies)

    # -- the traced round ------------------------------------------------------

    def _snapshot_probe(self, ledger) -> dict:
        """Build a snapshot in-process and read it back; returns the
        snapshot cells' values by ``(family, seed)``."""
        from repro.fabric import CatalogSnapshot, build_snapshot
        from repro.harness import expand_grid, run_sweep

        jobs = expand_grid("measure_bandwidth", {
            "family": list(SNAPSHOT_FAMILIES), "size": [SNAPSHOT_SIZE],
            "seed": list(range(SNAPSHOT_SEEDS)),
        })
        sweep = run_sweep(jobs)
        self.tally.check(sweep.ok, "in-process snapshot grid failed", count=len(jobs))
        path = self.scratch / "probe.snap"
        builds = [timed(lambda: build_snapshot(sweep.results, path))[1] for _ in range(3)]
        values = {(j.spec["family"], j.spec["seed"]): v for j, v in zip(jobs, sweep.values)}
        by_hash = {j.job_hash: v for j, v in zip(jobs, sweep.values)}
        gets = []
        with CatalogSnapshot(path) as snap:
            for h in itertools.islice(itertools.cycle(by_hash), 1000):
                (hit, value), seconds = timed(lambda: snap.get(h))
                gets.append(seconds)
                if not (hit and value == by_hash[h]):
                    self.tally.check(False, f"snapshot lookup {h[:12]}")
        ledger["snapshot.build_ms"] = statistics.median(builds) * 1e3
        ledger["snapshot.get_us"] = statistics.median(gets) * 1e6
        return values

    def _handle_probe(self, ledger) -> None:
        """Time ``QueryService.handle`` in-process on each cache tier."""
        from repro.fabric import CatalogSnapshot
        from repro.harness import ResultStore
        from repro.service import QueryService, ServiceMetrics

        store_root = self.scratch / "probe-store"
        key = {"family": COLD_FAMILY, "size": str(COLD_SIZE), "seed": str(self.seed)}

        def handle(svc, query, tier):
            (status, payload), seconds = timed(
                lambda: svc.handle("GET", "/v1/bandwidth", query)
            )
            if status != 200 or payload["meta"]["cache"] != tier:
                self.tally.check(False, f"in-process {query}: {status}, want {tier}")
            return seconds

        with CatalogSnapshot(self.snapshot) as snap:
            svc = QueryService(store=ResultStore(store_root), snapshot=snap)
            handle(svc, key, "miss")
            snap_key = {"family": SNAPSHOT_FAMILIES[0], "size": str(SNAPSHOT_SIZE), "seed": "0"}
            samples = {
                "memory": [handle(svc, key, "memory") for _ in range(200)],
                "snapshot": [handle(svc, snap_key, "snapshot") for _ in range(200)],
                "store": [
                    handle(QueryService(store=ResultStore(store_root)), key, "store")
                    for _ in range(30)
                ],
                "miss": [
                    handle(svc, {**key, "seed": str(next(self.cold_seeds))}, "miss")
                    for _ in range(5)
                ],
            }
        for tier, seconds in samples.items():
            ledger[f"service.handle_us.{tier}"] = statistics.median(seconds) * 1e6
        metrics = ServiceMetrics()
        _, seconds = timed(
            lambda: [metrics.observe("GET /v1/bandwidth", 200, 1e-3) for _ in range(5000)]
        )
        ledger["service.metrics_observe_us"] = seconds / 5000 * 1e6

    def _open_loop(self, ledger, snapshot_values) -> None:
        rng = random.Random(self.seed)
        memory = list(self.expected)

        def choose(r: random.Random) -> str:
            u = r.random()
            if u < OPEN_MIX[0]:
                return r.choice(memory)
            if u < OPEN_MIX[0] + OPEN_MIX[1]:
                return bandwidth_path(
                    r.choice(SNAPSHOT_FAMILIES), SNAPSHOT_SIZE, r.randrange(SNAPSHOT_SEEDS)
                )
            return bandwidth_path(COLD_FAMILY, COLD_SIZE, next(self.cold_seeds))

        lags = []
        for rate in OPEN_RATES:
            schedule = poisson_schedule(rate, OPEN_SECONDS, rng, choose)
            replies = open_loop(HOST, self.port, schedule, CONNECTIONS)
            for r in replies:
                if r.path in self.expected:
                    self._reply(r, "memory", r.path, self.expected[r.path])
                elif f"size={SNAPSHOT_SIZE}&" in r.path:
                    q = dict(kv.split("=") for kv in r.path.split("?")[1].split("&"))
                    want = snapshot_values.get((q["family"], int(q["seed"])))
                    self._reply(r, "snapshot", r.path, want)
                else:
                    self._reply(r, "miss", r.path)
            ledger[f"service.open_latency_ms.r{rate}"] = _ms(r.latency for r in replies)
            lags.extend(r.lag for r in replies)
        ledger["service.send_lag_ms"] = _ms(lags)

    def traced_round(self, rec, probe):
        ledger = {}
        snapshot_values = self._snapshot_probe(ledger)
        self._handle_probe(ledger)
        memory_s = ledger["service.handle_us.memory"] / 1e6
        # What a warm request costs beyond the handler: HTTP parsing and
        # writing, both sockets, and waiting for a CPU under the closed loop.
        http_s = max(0.0, statistics.median(self.warm_latencies) - memory_s)
        ledger["service.http_us"] = http_s * 1e6
        miss_s = ledger["service.handle_us.miss"] / 1e6

        # One cold compute's layers: medians over the verified recomputations.
        by_layer: dict[str, list[float]] = {}
        for parent in probe.named("op.cold"):
            for child in probe.children(parent):
                by_layer.setdefault(child.name, []).append(child.duration)
        layers = [(name, statistics.median(d), {}) for name, d in by_layer.items()]
        handle_rest = max(0.0, miss_s - sum(d for _, d, _ in layers))

        with rec.span("round"):
            for op in self.pass_ops(-1):
                with rec.span(f"op.{op.name}") as sp:
                    out = op.run()
                op.check(out)
                if op.name == "warm_batch":
                    n = WARM_PER_CONNECTION
                    rec.graft(sp, [("service.http", n * http_s, {}),
                                   ("service.handle", n * memory_s, {})])
                else:
                    rec.graft(sp, [("service.http", http_s, {})] + layers
                              + [("service.handle", handle_rest, {})])
        self._open_loop(ledger, snapshot_values)
        return ledger
