"""Bandwidth in all three of the paper's guises.

* **closed form** (Table 4): :func:`beta_formula` / :func:`delta_formula`
  return exact :class:`LogPoly` expressions per machine family;
* **graph-theoretic**: ``beta(H, T) = E(T) / C(H, T)``; since minimum
  congestion is NP-hard, :func:`beta_bracket` returns a rigorous
  ``[lower, upper]`` interval (routing congestion above, cut bounds
  below);
* **operational**: the routing-simulator delivery rate, re-exported from
  :mod:`repro.routing`.

Theorem 6 says the three agree to within Theta; the Table-4 bench checks
that numerically for every family.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.bandwidth.betweenness": (
        "betweenness_beta_estimate",
        "betweenness_congestion",
    ),
    "repro.bandwidth.cuts": ("bisection_width_upper", "flux_beta_upper"),
    "repro.bandwidth.formulas": (
        "beta_formula",
        "beta_value",
        "delta_formula",
        "delta_value",
    ),
    "repro.bandwidth.graph_theoretic": (
        "BetaBracket",
        "beta_bracket",
        "beta_lower",
        "beta_upper",
        "routing_congestion",
    ),
    "repro.bandwidth.lemma10": ("lemma10_beta_upper",),
    "repro.bandwidth.lp_bound": ("lp_beta_upper", "lp_min_congestion"),
    "repro.bandwidth.operational": ("measure_bandwidth",),
    "repro.bandwidth.spectral": ("algebraic_connectivity", "cheeger_bounds"),
})

__all__ = [
    "BetaBracket",
    "algebraic_connectivity",
    "beta_bracket",
    "beta_formula",
    "beta_lower",
    "beta_upper",
    "beta_value",
    "betweenness_beta_estimate",
    "betweenness_congestion",
    "bisection_width_upper",
    "cheeger_bounds",
    "delta_formula",
    "delta_value",
    "flux_beta_upper",
    "lemma10_beta_upper",
    "lp_beta_upper",
    "lp_min_congestion",
    "measure_bandwidth",
    "routing_congestion",
]
