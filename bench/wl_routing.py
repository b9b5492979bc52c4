"""``routing_warm``: library calls on machines whose tables and traffic
are already built.

Sampling, itinerary planning and the route kernel do the work; traffic
build does none inside the timed phase.  The two saturation sweeps are
the two regimes an engine change must both keep: the sparse sweep is
idle-dominated (few packets over many ticks), the dense one is not.
Set-up is the machine, table and traffic build the timed phase relies
on, so work moved into it shows in ``setup_s``.
"""

from __future__ import annotations

from common import Op, Workload, build_machine

MACHINES = (("mesh_2", 1024), ("de_bruijn", 1024), ("mesh_2", 256))
REPLICATES = 8
SPARSE = {"rates": [0.01, 0.02, 0.05], "duration": 2048}
DENSE = {"rates": [0.2, 0.5, 1.0], "duration": 256}


class RoutingWarm(Workload):
    name = "routing_warm"
    why = "warm library calls: sampling, planning and the route kernel; sparse and dense saturation"
    round_includes_setup = True

    def __init__(self, seed, tally, scratch):
        super().__init__(seed, tally, scratch)
        self.seeds = [REPLICATES * seed + i for i in range(REPLICATES)]
        self.state = None
        self.outputs = {}

    def prepare(self) -> None:
        # Imports are not part of a round's build; pay them once, untimed.
        import repro.routing  # noqa: F401
        import repro.topologies  # noqa: F401
        import repro.traffic  # noqa: F401

    def setup(self, rec) -> None:
        from repro.traffic import symmetric_traffic

        state = {}
        for family, size in MACHINES:
            machine = build_machine(rec, family, size)
            with rec.span("traffic.build"):
                state[(family, size)] = (machine, symmetric_traffic(machine.num_nodes))
        self.state = state

    def reset(self) -> None:
        self.state = None  # free one round's machines before building the next

    def _replicate(self, family):
        from repro.routing import measure_bandwidth_many

        machine, traffic = self.state[(family, 1024)]
        return measure_bandwidth_many(machine, seeds=self.seeds, traffic=traffic)

    def _sweep(self, regime):
        from repro.routing import saturation_sweep

        machine, traffic = self.state[("mesh_2", 256)]
        return saturation_sweep(machine, traffic=traffic, seed=self.seed, **regime)

    def _same(self, name, out) -> None:
        first = self.outputs.setdefault(name, out)
        self.tally.check(out == first, f"{name}: output differs from the first pass")

    def pass_ops(self, index: int) -> list[Op]:
        calls = (
            ("replicate_mesh_2", lambda: self._replicate("mesh_2")),
            ("replicate_de_bruijn", lambda: self._replicate("de_bruijn")),
            ("saturation_sparse", lambda: self._sweep(SPARSE)),
            ("saturation_dense", lambda: self._sweep(DENSE)),
        )
        return [Op(name, fn, lambda out, n=name: self._same(n, out)) for name, fn in calls]

    def operation_metrics(self, medians):
        return {
            "replicate_s": medians["replicate_mesh_2"] + medians["replicate_de_bruijn"],
            "saturation_sparse_s": medians["saturation_sparse"],
            "saturation_dense_s": medians["saturation_dense"],
        }

    def verify(self, probe) -> None:
        """Batched replicates equal solo runs, and one output per run --
        which one rotates with the seed -- equals the reference engine.
        The reference engine takes 2-7 s here, too long to check all three."""
        from repro.routing import measure_bandwidth, saturation_sweep

        for family in ("mesh_2", "de_bruijn"):
            machine, traffic = self.state[(family, 1024)]
            batched = self.outputs.get(f"replicate_{family}")
            solo = measure_bandwidth(machine, traffic=traffic, seed=self.seeds[0])
            self.tally.check(
                batched is not None and solo == batched[0],
                f"replicate_{family}: batched seed {self.seeds[0]} differs from a solo run",
            )
        which = self.seed % 3
        if which < 2:
            family = ("mesh_2", "de_bruijn")[which]
            machine, traffic = self.state[(family, 1024)]
            ref = measure_bandwidth(
                machine, traffic=traffic, seed=self.seeds[0], engine="reference"
            )
            got = self.outputs.get(f"replicate_{family}")
            self.tally.check(
                got is not None and ref == got[0],
                f"replicate_{family}: seed {self.seeds[0]} differs from engine='reference'",
            )
        else:
            machine, traffic = self.state[("mesh_2", 256)]
            ref = saturation_sweep(
                machine, traffic=traffic, seed=self.seed, engine="reference", **SPARSE
            )
            self.tally.check(
                ref == self.outputs.get("saturation_sparse"),
                "saturation_sparse differs from engine='reference'",
            )

    # -- the traced round ------------------------------------------------------

    def _replicate_layers(self, rec, family):
        """``measure_bandwidth_many`` split into sampling, planning and
        one batched route call."""
        from repro.routing import RoutingSimulator, shortest_path_route
        from repro.util import rng_from_seed

        machine, traffic = self.state[(family, 1024)]
        num_messages = self.outputs[f"replicate_{family}"][0].num_messages
        with rec.span("traffic.sample"):
            draw = traffic.sampler()
        batches = []
        for seed in self.seeds:
            rng = rng_from_seed(seed)
            with rec.span("traffic.sample"):
                messages = draw(num_messages, seed=rng)
            with rec.span("routing.plan"):
                batches.append(shortest_path_route(machine, messages))
        packets = sum(len(b) for b in batches)
        with rec.span("routing.route", packets=packets) as sp:
            results = RoutingSimulator(machine).route_batch(batches)
            sp.attrs["ticks"] = sum(r.total_time for r in results)
        return results

    def traced_round(self, rec, probe):
        self.reset()
        with rec.span("round"):
            with rec.span("op.setup"):
                self.setup(rec)
            for family in ("mesh_2", "de_bruijn"):
                name = f"replicate_{family}"
                if name not in self.outputs:
                    continue
                with rec.span(f"op.{name}"):
                    results = self._replicate_layers(rec, family)
                want = [(m.rate, m.total_time, m.max_edge_traffic, m.mean_latency)
                        for m in self.outputs[name]]
                got = [(r.delivery_rate, r.total_time, r.max_edge_traffic, r.mean_latency)
                       for r in results]
                self.tally.check(got == want, f"{name}: layer-by-layer run differs")
            for name, regime in (("saturation_sparse", SPARSE), ("saturation_dense", DENSE)):
                with rec.span(f"op.{name}"), rec.span("routing.route"):
                    points = self._sweep(regime)
                self._same(name, points)
        return {}
