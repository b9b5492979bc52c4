"""Named, parameterized traffic scenarios (the workload registry).

``build_workload("hotspot", 64)`` -> a :class:`Workload` bundling the
scenario's :class:`~repro.traffic.distribution.TrafficDistribution`,
validated parameters, optional temporal gate, and its theory
classification (quasi-symmetric or not).  Mirrors
:mod:`repro.topologies.registry`.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.collective": (
        "all_reduce_ring_traffic",
        "all_reduce_schedule",
        "all_reduce_time",
        "all_reduce_time_job",
        "all_reduce_tree_traffic",
    ),
    "repro.workloads.generators": ("gate_mask", "scale_free_traffic"),
    "repro.workloads.registry": (
        "WORKLOADS",
        "Workload",
        "WorkloadParam",
        "WorkloadSpec",
        "all_workload_keys",
        "build_workload",
        "resolve_workload",
        "workload_spec",
    ),
})

__all__ = [
    "WORKLOADS",
    "Workload",
    "WorkloadParam",
    "WorkloadSpec",
    "all_reduce_ring_traffic",
    "all_reduce_schedule",
    "all_reduce_time",
    "all_reduce_time_job",
    "all_reduce_tree_traffic",
    "all_workload_keys",
    "build_workload",
    "gate_mask",
    "resolve_workload",
    "scale_free_traffic",
    "workload_spec",
]
