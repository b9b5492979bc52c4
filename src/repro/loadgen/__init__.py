"""Load generation for the query service: drivers, mixes, histograms.

The subsystem that turns "the service did N rps once" into a measured
latency/throughput frontier:

* :mod:`repro.loadgen.stats` -- :class:`LatencyHistogram`, a fixed
  log-bucketed histogram over a latency stream (exact counts, each
  percentile at most 1% high, merged by adding buckets), shared with
  the service's own ``/metrics`` percentiles;
* :mod:`repro.loadgen.mix` -- named, parameterized request mixes
  (endpoint weights + warm/cold ratio) in a small registry;
* :mod:`repro.loadgen.drivers` -- a **closed-loop** driver (K
  connections, back-to-back requests: measures capacity) and an
  **open-loop** driver (Poisson arrivals at a target offered rate,
  latency measured from the *scheduled* send time so queueing delay is
  never coordinated-omitted: measures what users experience).

CLI: ``python -m repro loadtest``; frontier artifact:
``benchmarks/bench_load.py`` -> ``BENCH_service.json`` under
``load_frontier``.  See ``docs/LOADTEST.md``.
"""

from repro.loadgen.drivers import LoadResult, run_closed_loop, run_open_loop
from repro.loadgen.mix import MIXES, RequestMix, RequestSpec, resolve_mix
from repro.loadgen.stats import LatencyHistogram, percentile

__all__ = [
    "LatencyHistogram",
    "LoadResult",
    "MIXES",
    "RequestMix",
    "RequestSpec",
    "percentile",
    "resolve_mix",
    "run_closed_loop",
    "run_open_loop",
]
