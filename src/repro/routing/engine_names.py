"""The routing engines' names, importable without numpy.

:mod:`repro.operations` offers these as the ``engine`` choices of the
CLI and the service, so they live apart from the simulator: checking a
flag must not load the engines themselves.
"""

__all__ = ["DEFAULT_ENGINE", "ENGINES"]

#: Every ``engine=`` name; the CLI's ``--engine`` flags offer these.
ENGINES = ("fast", "reference", "compiled", "auto")
#: The engine every default path routes on: the C kernel when it
#: builds, else the batched numpy kernel.
DEFAULT_ENGINE = "auto"
