"""Synchronous store-and-forward packet-routing simulator.

This is the machine model the paper's operational bandwidth definition
lives on: one packet may cross each link per time step (per direction),
packets queue at links, and the *bandwidth* ``beta(M, pi)`` is the
asymptotic average delivery rate ``m / T(m)`` when ``m`` messages drawn
from distribution ``pi`` are injected (Theorem 6).

Weak machines (``port_limit=1``) additionally allow each processor to
drive only one outgoing link per step.
"""

from repro.routing.compiled import EngineUnavailableError
from repro.routing.dimension_order import (
    DimensionOrderRouter,
    dimension_order_route,
)
from repro.routing.measure import (
    BandwidthMeasurement,
    measure_bandwidth,
    measure_bandwidth_many,
)
from repro.routing.saturation import (
    SaturationPoint,
    saturation_bandwidth,
    saturation_sweep,
)
from repro.routing.simulator import (
    DEFAULT_ENGINE,
    ENGINES,
    RoutingResult,
    RoutingSimulator,
)
from repro.routing.stats import LinkStats, link_stats
from repro.routing.strategies import shortest_path_route, valiant_route
from repro.routing.tables import NextHopTables

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
