"""Shared utilities: deterministic RNG, integer math, validation, tables.

These helpers are deliberately tiny and dependency-light; every other
subpackage builds on them.
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.util.intmath": (
        "ceil_div",
        "ilog2",
        "is_perfect_power",
        "is_power_of",
        "is_power_of_two",
        "isqrt_exact",
    ),
    "repro.util.rng": ("rng_from_seed",),
    "repro.util.tables": ("format_table",),
    "repro.util.validation": ("check_positive_int", "check_probability"),
})

__all__ = [
    "ceil_div",
    "check_positive_int",
    "check_probability",
    "format_table",
    "ilog2",
    "is_perfect_power",
    "is_power_of",
    "is_power_of_two",
    "isqrt_exact",
    "rng_from_seed",
]
