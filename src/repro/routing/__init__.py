"""Synchronous store-and-forward packet-routing simulator.

This is the machine model the paper's operational bandwidth definition
lives on: one packet may cross each link per time step (per direction),
packets queue at links, and the *bandwidth* ``beta(M, pi)`` is the
asymptotic average delivery rate ``m / T(m)`` when ``m`` messages drawn
from distribution ``pi`` are injected (Theorem 6).

Weak machines (``port_limit=1``) additionally allow each processor to
drive only one outgoing link per step.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.routing.compiled": ("EngineUnavailableError",),
    "repro.routing.dimension_order": (
        "DimensionOrderRouter",
        "dimension_order_route",
    ),
    "repro.routing.engine_names": ("DEFAULT_ENGINE", "ENGINES"),
    "repro.routing.measure": (
        "BandwidthMeasurement",
        "measure_bandwidth",
        "measure_bandwidth_many",
    ),
    "repro.routing.saturation": (
        "SaturationPoint",
        "saturation_bandwidth",
        "saturation_sweep",
    ),
    "repro.routing.simulator": ("RoutingResult", "RoutingSimulator"),
    "repro.routing.stats": ("LinkStats", "link_stats"),
    "repro.routing.strategies": ("shortest_path_route", "valiant_route"),
    "repro.routing.tables": ("NextHopTables",),
})

__all__ = [
    "BandwidthMeasurement",
    "DEFAULT_ENGINE",
    "DimensionOrderRouter",
    "ENGINES",
    "EngineUnavailableError",
    "dimension_order_route",
    "NextHopTables",
    "RoutingResult",
    "RoutingSimulator",
    "SaturationPoint",
    "LinkStats",
    "link_stats",
    "saturation_bandwidth",
    "saturation_sweep",
    "measure_bandwidth",
    "measure_bandwidth_many",
    "shortest_path_route",
    "valiant_route",
]
