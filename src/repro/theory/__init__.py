"""The paper's results, executable.

* :mod:`slowdown` -- Theorem 1's symbolic ``S_c >= Omega(beta_G / beta_H)``
  (its certified numeric form, :func:`numeric_slowdown_bound`, sits
  beside the beta bracket) and Lemma 8's routing-time bound;
* :mod:`host_size` -- the maximum-host-size solver behind Tables 1-3
  (set communication slowdown = load slowdown, solve for ``|H|``);
* :mod:`tables` -- programmatic Tables 1, 2, 3 and 4;
* :mod:`figure1` -- the two Figure-1 curves and their crossover;
* :mod:`bottleneck` -- the empirical bottleneck-freeness test;
* :mod:`lam` -- the minimal-computation-time lambda(G).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.theory.bottleneck": ("BottleneckReport", "bottleneck_freeness"),
    "repro.theory.catalog": (
        "CatalogEntry",
        "catalog_consistency_violations",
        "full_catalog",
    ),
    "repro.theory.expander_gap": ("GapPoint", "expander_gap_experiment"),
    "repro.theory.figure1": ("Figure1Data", "figure1_data"),
    "repro.theory.host_size": ("max_host_size", "theorem_guest_time"),
    "repro.theory.lam": (
        "lam_formula",
        "lam_numeric",
        "lemma9_depth_condition",
    ),
    "repro.bandwidth.graph_theoretic": ("numeric_slowdown_bound",),
    "repro.theory.slowdown": (
        "SlowdownBound",
        "lemma8_time_lower",
        "symbolic_slowdown",
    ),
    "repro.theory.tables": (
        "generate_table",
        "generate_table1",
        "generate_table2",
        "generate_table3",
        "generate_table4",
    ),
})

__all__ = [
    "BottleneckReport",
    "CatalogEntry",
    "GapPoint",
    "catalog_consistency_violations",
    "Figure1Data",
    "SlowdownBound",
    "bottleneck_freeness",
    "expander_gap_experiment",
    "figure1_data",
    "full_catalog",
    "generate_table",
    "generate_table1",
    "generate_table2",
    "generate_table3",
    "generate_table4",
    "lam_formula",
    "lam_numeric",
    "lemma8_time_lower",
    "lemma9_depth_condition",
    "max_host_size",
    "numeric_slowdown_bound",
    "symbolic_slowdown",
    "theorem_guest_time",
]
