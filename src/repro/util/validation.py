"""Argument validation helpers with consistent error messages, and the
error for a capability the host lacks."""

from __future__ import annotations

__all__ = ["UnavailableError", "check_positive_int", "check_probability"]


def check_positive_int(value: int, name: str, minimum: int = 1) -> int:
    """Validate that ``value`` is an int >= ``minimum``; return it."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def check_probability(value: float, name: str) -> float:
    """Validate that ``value`` lies in [0, 1]; return it as float."""
    p = float(value)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value}")
    return p


class UnavailableError(RuntimeError):
    """A capability this host lacks, such as a C toolchain or SO_REUSEPORT.

    ``code`` names it in the service's 501 error envelope.
    """

    code = "unavailable"
