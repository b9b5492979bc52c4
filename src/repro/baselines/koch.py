"""Lower bounds of Koch, Leighton, Maggs, Rao & Rosenberg (STOC '89).

The paper's Section 1.2 quotes three results proved by distance- and
congestion-based arguments; they are implemented here both symbolically
(LogPoly in the guest size) and numerically so the baseline bench can
set them beside the bandwidth bounds.

1. *Distance-based*: emulating a (complete binary) tree on a
   k-dimensional mesh has slowdown

       S  >=  Omega( (n / lg^k n)^(1/(k+1)) ).

2. *Congestion-based*: emulating a butterfly on a k-dimensional mesh of
   m processors has slowdown at least ``2^Omega(m^(1/k))`` -- i.e.
   exponential in the host's side length (so only polylog-size mesh
   hosts are efficient, matching the bandwidth bound's lg^k n).

3. *Congestion-based*: emulating a k-dimensional mesh on a j-dimensional
   mesh, j < k, has slowdown at least ``Omega(m^((k-j)/j))`` in the host
   size m.
"""

from __future__ import annotations

from fractions import Fraction

from repro.asymptotics import LogPoly

__all__ = [
    "koch_tree_on_mesh_bound",
    "koch_butterfly_on_mesh_bound",
    "koch_mesh_on_mesh_bound",
]


def koch_tree_on_mesh_bound(k: int) -> LogPoly:
    """Distance-based bound for a tree guest on a k-dim mesh host,
    as a LogPoly in the guest size n: (n / lg^k n)^(1/(k+1))."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    inner = LogPoly.n() / LogPoly.log(power=k)
    return inner ** Fraction(1, k + 1)


def koch_butterfly_on_mesh_bound(m: int, k: int = 2, c: float = 0.1) -> float:
    """Numeric congestion-based bound 2^(c * m^(1/k)) for a butterfly
    guest on a k-dim mesh host of m processors (constant c unspecified
    in the paper; any fixed c > 0 preserves the shape)."""
    if m < 1 or k < 1:
        raise ValueError(f"m and k must be >= 1, got m={m}, k={k}")
    return 2.0 ** (c * m ** (1.0 / k))


def koch_mesh_on_mesh_bound(k: int, j: int) -> LogPoly:
    """Congestion-based bound for a k-dim mesh guest on a j-dim mesh
    host (j < k), as a LogPoly in the *host* size m: m^((k-j)/j)."""
    if not 1 <= j < k:
        raise ValueError(f"need 1 <= j < k, got j={j}, k={k}")
    return LogPoly.n(Fraction(k - j, j))
