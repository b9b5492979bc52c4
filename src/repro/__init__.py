"""repro: bandwidth-based lower bounds on emulation slowdown.

An executable reproduction of Kruskal & Rappoport, *"Bandwidth-Based
Lower Bounds on Slowdown for Efficient Emulations of Fixed-Connection
Networks"* (SPAA 1994).

Quick tour::

    from repro import family_spec, max_host_size, symbolic_slowdown

    # Symbolic Theorem-1 bound for a de Bruijn guest on a 2-d mesh host:
    print(symbolic_slowdown("de_bruijn", "mesh_2"))
    # Largest mesh that can efficiently emulate a de Bruijn graph:
    print(max_host_size("de_bruijn", "mesh_2"))   # O(lg(n)^2)

    # Build concrete machines and *measure* their bandwidth:
    from repro import beta_bracket, measure_bandwidth
    M = family_spec("de_bruijn").build_with_size(1024)
    print(beta_bracket(M), measure_bandwidth(M))

Subpackages: :mod:`repro.asymptotics` (exact Theta-algebra),
:mod:`repro.topologies` (every machine family in the paper),
:mod:`repro.traffic`, :mod:`repro.routing` (operational bandwidth),
:mod:`repro.embedding`, :mod:`repro.bandwidth` (graph-theoretic
brackets), :mod:`repro.emulation` (redundant circuits, Lemma 9/11,
executable emulator), :mod:`repro.theory` (Theorem 1, Tables 1-4,
Figure 1), :mod:`repro.baselines` (Koch et al., dilation bounds).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.asymptotics": (
        "BigO",
        "Bound",
        "LogPoly",
        "Omega",
        "Theta",
        "solve_monomial",
    ),
    "repro.bandwidth": (
        "beta_bracket",
        "beta_formula",
        "beta_value",
        "delta_formula",
        "measure_bandwidth",
    ),
    "repro.emulation": (
        "Circuit",
        "Emulator",
        "build_gamma",
        "build_nonredundant_circuit",
        "build_redundant_circuit",
        "collapse_circuit",
    ),
    "repro.theory": (
        "bottleneck_freeness",
        "figure1_data",
        "generate_table1",
        "generate_table2",
        "generate_table3",
        "generate_table4",
        "max_host_size",
        "numeric_slowdown_bound",
        "symbolic_slowdown",
    ),
    "repro.topologies": (
        "FAMILIES",
        "Machine",
        "all_family_keys",
        "family_spec",
    ),
    "repro.traffic": ("TrafficDistribution", "symmetric_traffic"),
})

__version__ = "1.0.0"

__all__ = [
    "BigO",
    "Bound",
    "Circuit",
    "Emulator",
    "FAMILIES",
    "LogPoly",
    "Machine",
    "Omega",
    "Theta",
    "TrafficDistribution",
    "all_family_keys",
    "beta_bracket",
    "beta_formula",
    "beta_value",
    "bottleneck_freeness",
    "build_gamma",
    "build_nonredundant_circuit",
    "build_redundant_circuit",
    "collapse_circuit",
    "delta_formula",
    "family_spec",
    "figure1_data",
    "generate_table1",
    "generate_table2",
    "generate_table3",
    "generate_table4",
    "max_host_size",
    "measure_bandwidth",
    "numeric_slowdown_bound",
    "solve_monomial",
    "symbolic_slowdown",
    "symmetric_traffic",
    "__version__",
]
