"""``cli_cold``: the commands users wait on, each in a fresh interpreter.

Import, machine build, dense tables, traffic build and the beta bracket
do most of the work here; the route kernel is a few percent.  So this
workload shows gains in those layers in full and almost nothing from
kernel work.  Set-up is the bare start-up every command pays
(``python -m repro families``).
"""

from __future__ import annotations

import re
import statistics
import subprocess
import sys

from common import (
    Op,
    ROOT,
    Workload,
    build_machine,
    measure_layers,
    repro_cli,
    same_number,
    timed,
)

COMMANDS = (
    ("bandwidth_mesh_2", ("bandwidth", "mesh_2", "--size", "1024")),
    ("bandwidth_de_bruijn", ("bandwidth", "de_bruijn", "--size", "1024")),
    ("bandwidth_xtree", ("bandwidth", "xtree", "--size", "1023")),
    ("saturation_mesh_2", ("saturation", "mesh_2", "--size", "256")),
    ("emulate_de_bruijn_mesh_2",
     ("emulate", "de_bruijn", "mesh_2", "--guest-size", "1024", "--host-size", "64")),
)

#: The ``emulate`` command's ``--steps`` default, which the recomputation repeats.
EMULATE_STEPS = 4

_BRACKET = re.compile(r"certified bracket:\s*\[([-\d.]+),\s*([-\d.]+)\]")
_RATE = re.compile(r"measured rate:\s*([\d.]+) packets/tick \((\d+) msgs in (\d+) ticks\)")
_SLOWDOWN = re.compile(r"S = ([\d.]+) \(>= load ([\d.]+), bandwidth ([\d.]+)\)")
_INEFFICIENCY = re.compile(r"inefficiency I = ([\d.]+)")


class CliCold(Workload):
    name = "cli_cold"
    why = "cold CLI commands: import, build, tables, traffic and bracket dominate; the kernel is ~2%"

    def __init__(self, seed, tally, scratch):
        super().__init__(seed, tally, scratch)
        self.stdout: dict[str, str] = {}
        self.recomputed = {}

    def _command(self, args) -> list[str]:
        return [*args, "--seed", str(self.seed)]

    def setup(self, rec) -> None:
        proc = repro_cli(["families"])
        self.tally.check(proc.returncode == 0, f"families: exit {proc.returncode}")

    def pass_ops(self, index: int) -> list[Op]:
        return [
            Op(name, lambda a=args: repro_cli(self._command(a)),
               lambda proc, n=name: self._check_run(n, proc))
            for name, args in COMMANDS
        ]

    def _check_run(self, name: str, proc: subprocess.CompletedProcess) -> None:
        ok = proc.returncode == 0
        if ok:
            ok = proc.stdout == self.stdout.setdefault(name, proc.stdout)
        self.tally.check(
            ok, f"{name}: exit {proc.returncode} or stdout differs from the first pass "
            f"{proc.stderr.strip()[-200:]}",
        )

    def operation_metrics(self, medians):
        bandwidth = [medians[name] for name, _ in COMMANDS if name.startswith("bandwidth_")]
        return {
            "cli_bandwidth_s": statistics.fmean(bandwidth),
            "cli_saturation_s": medians["saturation_mesh_2"],
            "cli_emulate_s": medians["emulate_de_bruijn_mesh_2"],
        }

    # -- verification: recompute every printed number in-process ---------------

    def verify(self, probe) -> None:
        for name, args in COMMANDS:
            out = self.stdout.get(name)
            if out is None:
                continue  # every run of it failed, already counted
            with probe.span(f"op.{name}") as parent:
                ok = getattr(self, "_recompute_" + args[0])(probe, args, out)
            self.recomputed[name] = parent
            self.tally.check(ok, f"{name}: printed numbers differ from the in-process recomputation")

    def _recompute_bandwidth(self, probe, args, out) -> bool:
        from repro.bandwidth import beta_bracket

        bracket, rate = _BRACKET.search(out), _RATE.search(out)
        if bracket is None or rate is None:
            return False
        machine = build_machine(probe, args[1], int(args[3]))
        with probe.span("bandwidth.bracket"):
            br = beta_bracket(machine)
        result = measure_layers(probe, machine, self.seed, int(rate.group(2)))
        return (
            same_number(bracket.group(1), br.lower)
            and same_number(bracket.group(2), br.upper)
            and same_number(rate.group(1), result.delivery_rate)
            and int(rate.group(3)) == result.total_time
        )

    def _recompute_saturation(self, probe, args, out) -> bool:
        from repro.routing import saturation_sweep
        from repro.traffic import symmetric_traffic

        machine = build_machine(probe, args[1], int(args[3]))
        with probe.span("traffic.build"):
            traffic = symmetric_traffic(machine.num_nodes)
        with probe.span("routing.route"):
            points = saturation_sweep(machine, traffic=traffic, seed=self.seed)
        lines = out.splitlines()
        sep = next((i for i, line in enumerate(lines) if set(line) <= set("-+") and line), None)
        rows = [line.split("|") for line in lines[sep + 1:]] if sep is not None else []
        if len(rows) != len(points):
            return False
        for row, p in zip(rows, points):
            cells = [c.strip() for c in row]
            if len(cells) != 5 or not cells[4].isdigit():
                return False
            values = (p.offered_rate, p.delivered_rate, p.mean_latency, p.p99_latency)
            if not all(same_number(c, v) for c, v in zip(cells, values)):
                return False
            if int(cells[4]) != p.max_queue:
                return False
        return True

    def _recompute_emulate(self, probe, args, out) -> bool:
        from repro.emulation import Emulator

        slowdown, ineff = _SLOWDOWN.search(out), _INEFFICIENCY.search(out)
        if slowdown is None or ineff is None:
            return False
        guest = build_machine(probe, args[1], int(args[4]), tables=False)
        host = build_machine(probe, args[2], int(args[6]), tables=False)
        with probe.span("emulation.run"):
            report = Emulator(guest, host, seed=self.seed).run(EMULATE_STEPS)
        return (
            same_number(slowdown.group(1), report.slowdown)
            and same_number(slowdown.group(2), report.load_bound)
            and same_number(slowdown.group(3), report.bandwidth_bound)
            and same_number(ineff.group(1), report.inefficiency)
        )

    # -- the traced round ------------------------------------------------------

    def traced_round(self, rec, probe):
        def import_once():
            return subprocess.run(
                [sys.executable, "-c", "import repro.cli"], capture_output=True, cwd=ROOT,
            )

        probes = [timed(import_once) for _ in range(3)]
        self.tally.check(all(p.returncode == 0 for p, _ in probes), "import repro.cli failed")
        import_s = statistics.median(t for _, t in probes)
        with rec.span("round"):
            for name, args in COMMANDS:
                with rec.span(f"op.{name}") as sp:
                    proc = repro_cli(self._command(args))
                self._check_run(name, proc)
                parent = self.recomputed.get(name)
                layers = probe.children(parent) if parent is not None else []
                rec.graft(sp, [("cli.import", import_s, {})]
                          + [(c.name, c.duration, c.attrs) for c in layers])
        return {"cli.import_s": import_s}
