"""Shared pieces of the benchmark: locations, the environment the program
runs in, failure tallies, the workload interface and the layer-by-layer
recomputation of one bandwidth measurement.

The benchmark runs from the root of a checkout and builds nothing: the
program is the pure-Python package under ``src/``.  Everything the
benchmark or the program writes goes under ``.bench_run/`` in the same
checkout, including temporary files and the compiled-kernel cache.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

__all__ = [
    "ROOT",
    "Op",
    "SEED_SPACE",
    "SpeedProbe",
    "Tally",
    "Workload",
    "bandwidth_fields",
    "build_machine",
    "env_stamp",
    "fields_match",
    "measure_layers",
    "prepare_environment",
    "repro_cli",
    "same_number",
    "timed",
]

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

#: Wall-clock cap on one CLI subprocess; a run must end within 180 s.
CLI_TIMEOUT = 150.0

#: Seeds are taken modulo this, so every one is a valid service seed
#: (at most ``repro.service.schemas.MAX_SEED``).
SEED_SPACE = 2**31 - 1


def prepare_environment() -> None:
    """Point this process and its children at the checkout's program.

    Exits with status 2, before any measurement, when the checkout holds
    no program to measure.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program to benchmark: {SRC / 'repro'} is missing\n")
        raise SystemExit(2)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_KERNEL_CACHE"] = str(WORK / "kernels")
    sys.path.insert(0, str(SRC))


def timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


# -- box speed -----------------------------------------------------------------

#: Iterations of the speed probe's loop.
PROBE_LOOPS = 40_000
#: The probe's time on the 2-CPU box the benchmark was defined on, in its
#: fast state: the speed that adjusted timings are expressed at.
PROBE_REF_S = 0.0025


def probe_once() -> float:
    """Seconds a fixed pure-Python loop takes on the calling thread."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


class SpeedProbe:
    """How fast the box runs right before each measured call.

    On a box whose CPUs are shared with other tenants, the same code runs
    up to ~1.8x slower for seconds to minutes at a time, on every workload
    at once.  The runner times this fixed loop on each CPU it may use
    right before every set-up and every operation, and scales that call's
    wall time to the reference speed ``PROBE_REF_S``.  Raw times are kept.
    """

    def __init__(self, cpus: list[int] | None = None) -> None:
        self.cpus = sorted(os.sched_getaffinity(0)) if cpus is None else cpus
        self.samples: list[float] = []

    def factor(self, repeats: int = 2) -> float:
        """Time the loop ``repeats`` times pinned to each CPU in turn; return
        what a wall time measured now is multiplied by to read at the
        reference speed."""
        home = os.sched_getaffinity(0)
        now = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                now.extend(probe_once() for _ in range(repeats))
        finally:
            os.sched_setaffinity(0, home)
        self.samples.extend(now)
        return PROBE_REF_S / statistics.median(now)


def repro_cli(args: list[str]) -> subprocess.CompletedProcess:
    """``python -m repro ARGS`` in a fresh interpreter, output captured."""
    try:
        return subprocess.run(
            [sys.executable, "-m", "repro", *args], capture_output=True, text=True,
            timeout=CLI_TIMEOUT, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        return subprocess.CompletedProcess(exc.cmd, -9, exc.stdout or "", "timed out")


def same_number(token: str, value: float) -> bool:
    """Whether ``value`` prints as ``token`` at the token's precision."""
    decimals = len(token.split(".")[1]) if "." in token else 0
    return f"{value:.{decimals}f}" == token


class Tally:
    """Attempted and failed operations; keeps the first failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str, count: int = 1) -> bool:
        """Count ``count`` operations, all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


@dataclass
class Op:
    """One timed operation of a pass: ``run`` is timed, ``check`` is not."""

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


class Workload:
    """Interface each workload implements; ``run.py`` drives it.

    ``prepare`` makes untimed inputs once.  ``setup`` is then run three
    times and timed (``setup_s``), with ``reset`` discarding the state of
    the previous one; the last state is what the passes use, after an
    untimed ``warm``.  ``pass_ops`` returns one pass, which the runner
    repeats until the run's seconds are spent.  ``verify`` runs after the
    timed phase and may recompute outputs in-process.  ``traced_round``
    runs one more round with every layer call spanned.  ``notes`` holds
    diagnostics that are recorded but not gated.
    """

    name = ""
    why = ""
    #: Whether the traced round repeats the set-up (for its overhead ratio).
    round_includes_setup = False

    def __init__(self, seed: int, tally: Tally, scratch: Path) -> None:
        self.seed = seed
        self.tally = tally
        self.scratch = scratch
        self.notes: dict[str, Any] = {}

    def prepare(self) -> None:
        """Untimed inputs the set-up needs."""

    def setup(self, rec) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Discard the previous set-up's state (untimed)."""

    def warm(self) -> None:
        """Untimed work between the last set-up and the timed phase."""

    def pass_ops(self, index: int) -> list[Op]:
        raise NotImplementedError

    def verify(self, rec) -> None:
        """Post-measurement checks; ``rec`` spans the in-process recomputation."""

    def operation_metrics(self, medians: dict[str, float]) -> dict[str, float]:
        raise NotImplementedError

    def traced_round(self, rec, probe) -> dict[str, Any]:
        """Run one spanned round into ``rec``; extra measurements go to
        ``probe``.  Returns workload-specific ledger entries."""
        raise NotImplementedError

    def close(self) -> None:
        """Stop every process the workload started."""


# -- one bandwidth measurement, layer by layer ---------------------------------


def build_machine(rec, family: str, size: int, tables: bool = True):
    """``family_spec(family).build_with_size(size)``, then its dense
    next-hop tables, each under its own span."""
    from repro.routing import NextHopTables
    from repro.topologies import family_spec

    with rec.span("topologies.build"):
        machine = family_spec(family).build_with_size(size)
    if tables:
        with rec.span("routing.tables"):
            NextHopTables.shared(machine).ensure_dense()
    return machine


def measure_layers(rec, machine, seed: int, num_messages: int, traffic=None):
    """``measure_bandwidth(machine, seed=seed)`` split into its layers:
    traffic build, sampling, itinerary planning and the route kernel.
    Returns the kernel's :class:`RoutingResult`."""
    from repro.routing import RoutingSimulator, shortest_path_route
    from repro.traffic import symmetric_traffic
    from repro.util import rng_from_seed

    if traffic is None:
        with rec.span("traffic.build"):
            traffic = symmetric_traffic(machine.num_nodes)
    rng = rng_from_seed(seed)
    with rec.span("traffic.sample"):
        messages = traffic.sample_messages(num_messages, seed=rng)
    with rec.span("routing.plan"):
        itineraries = shortest_path_route(machine, messages)
    with rec.span("routing.route", packets=len(itineraries)) as sp:
        result = RoutingSimulator(machine).route(itineraries)
        sp.attrs["ticks"] = result.total_time
    return result


def bandwidth_fields(machine, result, num_messages: int) -> dict[str, Any]:
    """The fields of a ``measure_bandwidth`` job value a recomputation gives."""
    return {
        "machine": machine.name,
        "n": machine.num_nodes,
        "num_messages": num_messages,
        "total_time": result.total_time,
        "rate": result.delivery_rate,
        "max_edge_traffic": result.max_edge_traffic,
        "mean_latency": result.mean_latency,
    }


def fields_match(value: Any, fields: dict[str, Any]) -> bool:
    """Whether a job value carries exactly these fields (bit-identical floats)."""
    return isinstance(value, dict) and all(value.get(k) == v for k, v in fields.items())


# -- environment stamp ---------------------------------------------------------


def _git() -> dict[str, Any]:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}

    def git(*args: str) -> str | None:
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), *args], capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"sha": git("rev-parse", "HEAD"), "dirty": bool(status) if status is not None else None}


def env_stamp() -> dict[str, Any]:
    """Where the run happened: CPUs, interpreter and library versions, commit."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git": _git(),
    }
