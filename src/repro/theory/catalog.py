"""The full guest x host catalogue of maximum efficient host sizes.

Tables 1-3 print selected rows; this module derives the *entire* matrix
over every registry family, with structural consistency checks that
catch regressions in the solver or the Table-4 closed forms:

* **host monotonicity**: a host family with pointwise-greater bandwidth
  admits a pointwise-greater maximum host size for every guest;
* **guest antitonicity**: a more bandwidth-hungry guest forces a smaller
  maximum host on every host family;
* **diagonal**: every family can host itself at full size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asymptotics import BigO, Bound, LogPoly
from repro.theory.host_size import max_host_size
from repro.topologies.registry import FAMILIES, family_spec
from repro.workloads.registry import workload_spec

__all__ = [
    "CatalogEntry",
    "catalog_cell_job",
    "catalog_consistency_violations",
    "full_catalog",
    "workload_cell_bound",
]


@dataclass(frozen=True)
class CatalogEntry:
    guest_key: str
    host_key: str
    bound: Bound
    workload_key: str | None = None


def workload_cell_bound(guest_key: str, host_key: str, workload_key: str) -> Bound:
    """Maximum-host-size bound for a (guest, host) pair under a named
    workload.

    The paper's slowdown lower bounds hold for *quasi-symmetric* traffic
    (Omega(n^2) equally-likely pairs).  For a quasi-symmetric workload
    the symmetric-traffic cell applies verbatim.  For anything else
    (hot-spot, permutations, collectives, ...) the bandwidth obstruction
    is not proven, so the only safe statement is the trivial cap
    ``O(n)`` -- the host may be as large as the guest, and the framework
    makes no claim beyond that.
    """
    if workload_spec(workload_key).quasi_symmetric:
        return max_host_size(guest_key, host_key)
    return BigO(LogPoly.n())


def full_catalog(
    guests: list[str] | None = None,
    hosts: list[str] | None = None,
    workload: str | None = None,
) -> list[CatalogEntry]:
    """Every (guest, host) maximum-host-size bound.

    With ``workload`` set, every cell is computed under that scenario
    (see :func:`workload_cell_bound`); default is the symmetric-traffic
    catalogue of Tables 1-3.
    """
    guests = guests or sorted(FAMILIES)
    hosts = hosts or sorted(FAMILIES)
    out = []
    for g in guests:
        for h in hosts:
            bound = (
                workload_cell_bound(g, h, workload)
                if workload is not None
                else max_host_size(g, h)
            )
            out.append(CatalogEntry(g, h, bound, workload_key=workload))
    return out


def catalog_cell_job(spec: dict) -> dict:
    """Harness job entry point for one catalog cell.

    Registered as the ``catalog_cell`` alias: ``guest`` and ``host`` are
    family keys; ``workload`` (optional, omitted from the spec and the
    content hash when unused) names a traffic scenario, relaxing the
    cell when the scenario is not quasi-symmetric.  The symbolic bound
    is returned rendered (``expr`` is the bare LogPoly, ``bound``
    includes the Theta/O/Omega symbol) so the value is a stable JSON
    cell for the store.
    """
    workload = spec.get("workload")
    if workload is None:
        bound = max_host_size(spec["guest"], spec["host"])
    else:
        bound = workload_cell_bound(spec["guest"], spec["host"], workload)
    out = {
        "guest": spec["guest"],
        "host": spec["host"],
        "expr": str(bound.expr),
        "bound": str(bound),
        "kind": bound.kind,
    }
    if workload is not None:
        qs = workload_spec(workload).quasi_symmetric
        out["workload"] = workload
        out["workload_class"] = (
            "quasi_symmetric" if qs else "non_quasi_symmetric"
        )
        out["note"] = (
            "quasi-symmetric: the paper's lower bound applies verbatim"
            if qs
            else "not quasi-symmetric: the bandwidth obstruction is not "
            "proven; only the trivial O(n) cap remains"
        )
    return out


def catalog_consistency_violations(
    entries: list[CatalogEntry] | None = None,
) -> list[str]:
    """Check the three structural laws; returns human-readable violations.

    An empty list means the whole matrix is consistent.
    """
    entries = entries or full_catalog()
    table: dict[tuple[str, str], LogPoly] = {
        (e.guest_key, e.host_key): e.bound.expr for e in entries
    }
    guests = sorted({g for g, _ in table})
    hosts = sorted({h for _, h in table})
    violations: list[str] = []

    for g in guests:
        if (g, g) in table and table[(g, g)] != LogPoly.n():
            violations.append(f"diagonal: {g} cannot host itself at Theta(n)")

    for g in guests:
        for h1 in hosts:
            for h2 in hosts:
                if h1 >= h2:
                    continue
                b1, b2 = family_spec(h1).beta, family_spec(h2).beta
                if b1 >= b2 and table[(g, h1)] < table[(g, h2)]:
                    violations.append(
                        f"host monotonicity: beta({h1}) >= beta({h2}) but "
                        f"{g}-host size {table[(g, h1)]} < {table[(g, h2)]}"
                    )
                if b2 >= b1 and table[(g, h2)] < table[(g, h1)]:
                    violations.append(
                        f"host monotonicity: beta({h2}) >= beta({h1}) but "
                        f"{g}-host size {table[(g, h2)]} < {table[(g, h1)]}"
                    )

    for h in hosts:
        for g1 in guests:
            for g2 in guests:
                if g1 >= g2:
                    continue
                r1 = family_spec(g1).beta / LogPoly.n()
                r2 = family_spec(g2).beta / LogPoly.n()
                if r1 >= r2 and table[(g1, h)] > table[(g2, h)]:
                    violations.append(
                        f"guest antitonicity: {g1} hungrier than {g2} but "
                        f"allows bigger {h} host"
                    )
                if r2 >= r1 and table[(g2, h)] > table[(g1, h)]:
                    violations.append(
                        f"guest antitonicity: {g2} hungrier than {g1} but "
                        f"allows bigger {h} host"
                    )
    return violations
