"""Workload registry: named, parameterized traffic scenarios.

The paper's bandwidth framework is defined relative to a traffic
distribution ``pi``; the symmetric distribution defines the machine
bandwidth ``beta(M)``, and the lower bounds hold for any
*quasi-symmetric* ``pi``.  This registry mirrors the machine-family
registry (:mod:`repro.topologies.registry`): each :class:`WorkloadSpec`
binds a stable key to

* a builder producing the scenario's :class:`TrafficDistribution` at a
  requested machine size (plus, for bursty scenarios, an on-off gate),
* a parameter schema (:class:`WorkloadParam`) so services and the CLI
  can validate and content-hash scenario parameters,
* the classification the theory layer needs: whether the scenario is
  quasi-symmetric (the paper's lower-bound hypothesis) and whether it is
  a collective schedule.

``build_workload("hotspot", 64, hot_fraction=0.7)`` returns a
:class:`Workload`; ``resolve_workload`` is the permissive entry point
used by the measurement code paths.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping

if TYPE_CHECKING:
    from repro.traffic.distribution import TrafficDistribution

__all__ = [
    "WORKLOADS",
    "Workload",
    "WorkloadParam",
    "WorkloadSpec",
    "all_workload_keys",
    "build_workload",
    "resolve_workload",
    "workload_spec",
]


@dataclass(frozen=True)
class WorkloadParam:
    """One validated scenario parameter (name, type, default, bounds)."""

    name: str
    kind: str  # "int" | "float"
    default: Any
    minimum: float | None = None
    maximum: float | None = None

    def coerce(self, value: Any) -> Any:
        """Type-check and bound ``value``, or raise :class:`ValueError`."""
        if self.kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"workload param {self.name!r} must be an int, "
                    f"got {value!r}"
                )
            out: Any = value
        elif self.kind == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"workload param {self.name!r} must be a number, "
                    f"got {value!r}"
                )
            out = float(value)
        else:  # pragma: no cover - registry construction error
            raise ValueError(f"unknown param kind {self.kind!r}")
        if self.minimum is not None and out < self.minimum:
            raise ValueError(
                f"workload param {self.name!r} must be >= {self.minimum}, "
                f"got {out}"
            )
        if self.maximum is not None and out > self.maximum:
            raise ValueError(
                f"workload param {self.name!r} must be <= {self.maximum}, "
                f"got {out}"
            )
        return out


@dataclass(frozen=True)
class Workload:
    """A concrete scenario at a concrete machine size.

    ``traffic`` is the spatial distribution the simulator samples from;
    ``gate`` (optional ``(on, off)`` tick counts) is a temporal on-off
    envelope applied to open-loop injection in saturation sweeps.
    """

    key: str
    display: str
    params: Mapping[str, Any]
    traffic: TrafficDistribution
    gate: tuple[int, int] | None = None
    quasi_symmetric: bool = True
    collective: bool = False

    @property
    def n(self) -> int:
        return self.traffic.n

    def gate_open(self, duration: int):
        """Boolean injection envelope of length ``duration`` (or ``None``
        when the workload has no temporal structure)."""
        if self.gate is None:
            return None
        from repro.workloads.generators import gate_mask

        return gate_mask(duration, *self.gate)

    def __repr__(self) -> str:
        ps = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"Workload({self.key}({ps}), n={self.n})"


@dataclass(frozen=True)
class WorkloadSpec:
    """Registry entry for one traffic scenario.

    ``build(n, **params)`` returns either a :class:`TrafficDistribution`
    or a ``(TrafficDistribution, gate)`` pair; params are validated
    against ``params`` first.  ``quasi_symmetric`` records whether the
    scenario satisfies the paper's lower-bound hypothesis (Omega(n^2)
    equally-likely pairs); ``requires`` documents any structural
    constraint on ``n`` (enforced by the underlying generator).
    """

    key: str
    display: str
    build: Callable[..., Any]
    params: tuple[WorkloadParam, ...] = ()
    quasi_symmetric: bool = True
    collective: bool = False
    requires: str = ""
    notes: str = ""

    def validated_params(self, overrides: Mapping[str, Any]) -> dict[str, Any]:
        """Merge ``overrides`` over the defaults, rejecting unknown names."""
        known = {p.name: p for p in self.params}
        unknown = sorted(set(overrides) - set(known))
        if unknown:
            accepted = sorted(known) or ["(none)"]
            raise ValueError(
                f"unknown param(s) {unknown} for workload {self.key!r}; "
                f"accepted: {accepted}"
            )
        return {
            name: p.coerce(overrides[name]) if name in overrides else p.default
            for name, p in known.items()
        }

    def build_with_size(self, n: int, **overrides: Any) -> Workload:
        """Build the scenario for an ``n``-node machine."""
        params = self.validated_params(overrides)
        built = self.build(n, **params)
        if isinstance(built, tuple):
            traffic, gate = built
        else:
            traffic, gate = built, None
        return Workload(
            key=self.key,
            display=self.display,
            params=params,
            traffic=traffic,
            gate=gate,
            quasi_symmetric=self.quasi_symmetric,
            collective=self.collective,
        )


# Each builder imports its generator module on its first call, so the
# registry's metadata (keys, params, classification) loads no numpy:
# ``repro workloads`` lists the scenarios without building one.


def _generator(path: str) -> Callable[..., TrafficDistribution]:
    """The generator at ``"module:function"``, called as ``f(n, **params)``."""
    module, _, name = path.partition(":")

    def build(n: int, **params: Any) -> TrafficDistribution:
        return getattr(importlib.import_module(module), name)(n, **params)

    return build


def _bursty(n: int, on: int, off: int):
    from repro.traffic.distribution import symmetric_traffic

    return symmetric_traffic(n), (on, off)


def _make_workloads() -> dict[str, WorkloadSpec]:
    wls: dict[str, WorkloadSpec] = {}

    def add(spec: WorkloadSpec) -> None:
        if spec.key in wls:
            raise ValueError(f"duplicate workload key {spec.key}")
        wls[spec.key] = spec

    add(
        WorkloadSpec(
            "symmetric",
            "Symmetric",
            _generator("repro.traffic.distribution:symmetric_traffic"),
            notes="every ordered pair equally likely; defines beta(M)",
        )
    )
    add(
        WorkloadSpec(
            "quasi_symmetric",
            "Quasi-Symmetric",
            _generator("repro.traffic.distribution:quasi_symmetric_traffic"),
            params=(
                WorkloadParam("fraction", "float", 0.5, minimum=1e-6, maximum=1.0),
                WorkloadParam("seed", "int", 0, minimum=0),
            ),
            notes="random equal-weight pair subset; the paper's hypothesis",
        )
    )
    add(
        WorkloadSpec(
            "hotspot",
            "Hot-Spot",
            _generator("repro.traffic.distribution:hot_spot_traffic"),
            params=(
                WorkloadParam("hot", "int", 0, minimum=0),
                WorkloadParam("hot_fraction", "float", 0.5, maximum=0.999),
            ),
            quasi_symmetric=False,
            notes="symmetric background plus one overloaded destination",
        )
    )
    add(
        WorkloadSpec(
            "bursty",
            "Bursty (on-off)",
            _bursty,
            params=(
                WorkloadParam("on", "int", 16, minimum=1),
                WorkloadParam("off", "int", 16, minimum=1),
            ),
            notes="symmetric pairs gated by an on/off injection envelope; "
            "spatially quasi-symmetric",
        )
    )
    add(
        WorkloadSpec(
            "scale_free",
            "Scale-Free",
            _generator("repro.workloads.generators:scale_free_traffic"),
            params=(WorkloadParam("alpha", "float", 1.0, minimum=0.0, maximum=8.0),),
            quasi_symmetric=False,
            notes="pair weight (s+1)^-alpha * (d+1)^-alpha; hub-heavy",
        )
    )
    add(
        WorkloadSpec(
            "permutation",
            "Random Permutation",
            _generator("repro.traffic.distribution:permutation_traffic"),
            params=(WorkloadParam("seed", "int", 0, minimum=0),),
            quasi_symmetric=False,
            notes="fixed-point-free random permutation (n pairs)",
        )
    )
    add(
        WorkloadSpec(
            "transpose",
            "Matrix Transpose",
            _generator("repro.traffic.distribution:transpose_traffic"),
            quasi_symmetric=False,
            requires="square n",
            notes="adversarial for meshes: r*side+c -> c*side+r",
        )
    )
    add(
        WorkloadSpec(
            "bit_reversal",
            "Bit Reversal",
            _generator("repro.traffic.distribution:bit_reversal_traffic"),
            quasi_symmetric=False,
            requires="power-of-two n",
            notes="adversarial for butterflies: address bits reversed",
        )
    )
    add(
        WorkloadSpec(
            "all_reduce_ring",
            "All-Reduce (ring)",
            _generator("repro.workloads.collective:all_reduce_ring_traffic"),
            quasi_symmetric=False,
            collective=True,
            notes="reduce-scatter + all-gather ring; n neighbour pairs",
        )
    )
    add(
        WorkloadSpec(
            "all_reduce_tree",
            "All-Reduce (tree)",
            _generator("repro.workloads.collective:all_reduce_tree_traffic"),
            quasi_symmetric=False,
            collective=True,
            notes="binary-tree reduce + broadcast over the implicit heap",
        )
    )
    return wls


#: All registered workload specs, keyed by workload key.
WORKLOADS: dict[str, WorkloadSpec] = _make_workloads()


def workload_spec(key: str) -> WorkloadSpec:
    """Look up a workload by key (e.g. ``"hotspot"``)."""
    try:
        return WORKLOADS[key]
    except KeyError:
        raise KeyError(
            f"unknown workload {key!r}; known: {sorted(WORKLOADS)}"
        ) from None


def all_workload_keys() -> list[str]:
    """Sorted list of every registered workload key."""
    return sorted(WORKLOADS)


def build_workload(key: str, n: int, **params: Any) -> Workload:
    """Build workload ``key`` for an ``n``-node machine."""
    return workload_spec(key).build_with_size(n, **params)


def resolve_workload(
    workload: "str | Workload | None", n: int, params: Mapping[str, Any] | None = None
) -> Workload | None:
    """Normalize a workload argument for the measurement code paths.

    Accepts ``None`` (caller keeps its default traffic), a registry key
    (built at size ``n`` with optional ``params``), or an already-built
    :class:`Workload` (size-checked against ``n``).
    """
    if workload is None:
        if params:
            raise ValueError("workload params given without a workload key")
        return None
    if isinstance(workload, str):
        return build_workload(workload, n, **dict(params or {}))
    if isinstance(workload, Workload):
        if params:
            raise ValueError("workload params given with a pre-built Workload")
        if workload.n != n:
            raise ValueError(
                f"workload built for n={workload.n} used on an "
                f"n={n} machine"
            )
        return workload
    raise TypeError(
        f"workload must be a key, a Workload, or None, got {type(workload).__name__}"
    )
