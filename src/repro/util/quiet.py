"""Warning suppression for noisy third-party numerics.

scipy's lobpcg (used by networkx's ``fiedler_vector``) warns about
convergence tolerance on the small, well-conditioned graphs this library
feeds it, and the warnings carry no signal.  ``quiet_numerics`` scopes
the suppression to the offending call instead of polluting global
state.  Its callers are the spectral embedder
(:mod:`repro.embedding.embedders`) and the Cheeger diagnostics
(:mod:`repro.bandwidth.spectral`); the beta bracket's cut side runs its
own power iteration and needs neither scipy nor this.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager

__all__ = ["quiet_numerics"]

_PATTERNS = (
    "Exited at iteration",
    "Exited postprocessing",
    "The problem size",
    "Failed at iteration",
)


@contextmanager
def quiet_numerics():
    """Context manager silencing scipy lobpcg convergence warnings."""
    with warnings.catch_warnings():
        for pat in _PATTERNS:
            warnings.filterwarnings("ignore", message=pat, category=UserWarning)
        yield
