"""The maximum-host-size solver behind Tables 1-3.

An emulation is *best possible* when the communication-induced slowdown
matches the load-induced slowdown ``n/m``; a larger host would idle, a
smaller one would be load-bound.  Setting

    beta_G(n) / beta_H(m)  =  n / m
    <=>   beta_H(m) / m  =  beta_G(n) / n

and solving for ``m`` with the exact monomial solver yields the largest
host that can *possibly* run an efficient emulation.  The solution is
capped at ``Theta(n)``: a host at least as communication-capable as the
guest can always be taken as large as the guest itself.
"""

from __future__ import annotations

from repro.asymptotics import BigO, Bound, LogPoly, Omega
from repro.asymptotics.solve import solve_monomial
from repro.topologies.registry import family_spec

__all__ = ["max_host_size", "theorem_guest_time"]


def max_host_size(guest_key: str, host_key: str) -> Bound:
    """Largest efficient host size ``|H| = O(f(|G|))`` for the pair.

    Returns ``O(f(n))`` with ``f`` exact; ``f = n`` when the host family
    is at least as powerful per processor as the guest (no bandwidth
    obstruction below equal size).
    """
    g = family_spec(guest_key)
    h = family_spec(host_key)
    n = LogPoly.n()
    target = g.beta / n  # beta_G(n) / n, a function of n
    f = h.beta / n  # beta_H(m) / m, read as a function of m
    # Per-processor bandwidth ratios fall with size.  If the host's ratio
    # at size n still dominates the guest's (f(n) >= target(n), a same-
    # variable dominance comparison), the bandwidth argument never bites
    # below equal size: the host may be as large as the guest.
    if f >= target:
        return BigO(n)
    m = solve_monomial(f, target)
    # f(n) < target(n) and f decreasing imply the crossing is below n.
    return BigO(m)


def theorem_guest_time(guest_key: str) -> Bound:
    """Minimum guest computation time for the bound to apply.

    Theorems 2-5 require ``T_G >= Omega(lambda(G))``, the minimal
    computation time, which for the registry families is the Table-4
    ``Delta`` (diameter scale): ``lg|G|`` for the hypercubic and
    hierarchical families, ``|G|^{1/j}`` for j-dimensional meshes.
    """
    return Omega(family_spec(guest_key).delta)
