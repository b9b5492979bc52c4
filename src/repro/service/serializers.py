"""JSON serializers shared by the service endpoints and the CLI.

``GET /v1/families`` and ``repro families --json`` (likewise
``/v1/catalog`` and ``repro catalog --json``) must emit byte-identical
shapes -- scripts switch between the two transports freely -- so the
serialization lives here, once, and both front-ends import it.

Catalog cells deliberately reuse the shape of
:func:`repro.theory.catalog.catalog_cell_job` (the harness job the
service computes cells through), so a cell looks the same whether it
came from the in-memory cache, the result store, or a direct CLI call.
"""

from __future__ import annotations

from typing import Any

from repro.operations import DEFAULT_CATALOG_KEYS
from repro.topologies.registry import FAMILIES, FamilySpec

__all__ = [
    "DEFAULT_CATALOG_KEYS",
    "catalog_payload",
    "families_payload",
    "family_dict",
    "workload_dict",
    "workloads_payload",
]


def family_dict(spec: FamilySpec) -> dict[str, Any]:
    """One registry entry as a JSON object (Table-4 row, machine-readable)."""
    return {
        "key": spec.key,
        "display": spec.display,
        "beta": str(spec.beta),
        "delta": str(spec.delta),
        "fixed_degree": spec.fixed_degree,
        "bottleneck_free": spec.bottleneck_free,
        "weak": spec.weak,
        "k": spec.k,
        "notes": spec.notes,
    }


def families_payload() -> dict[str, Any]:
    """The full registry: ``{"count": N, "families": [...]}``."""
    families = [family_dict(FAMILIES[key]) for key in sorted(FAMILIES)]
    return {"count": len(families), "families": families}


def workload_dict(spec: Any) -> dict[str, Any]:
    """One workload-registry entry as a JSON object."""
    return {
        "key": spec.key,
        "display": spec.display,
        "params": [
            {
                "name": p.name,
                "kind": p.kind,
                "default": p.default,
                "minimum": p.minimum,
                "maximum": p.maximum,
            }
            for p in spec.params
        ],
        "quasi_symmetric": spec.quasi_symmetric,
        "collective": spec.collective,
        "requires": spec.requires,
        "notes": spec.notes,
    }


def workloads_payload() -> dict[str, Any]:
    """The full workload registry: ``{"count": N, "workloads": [...]}``."""
    from repro.workloads.registry import WORKLOADS

    workloads = [workload_dict(WORKLOADS[key]) for key in sorted(WORKLOADS)]
    return {"count": len(workloads), "workloads": workloads}


def catalog_payload(
    guests: list[str],
    hosts: list[str],
    cells: list[dict[str, Any]],
    workload: str | None = None,
) -> dict[str, Any]:
    """The catalog envelope; ``cells`` iterate hosts fastest, like rows.

    ``workload`` (when set) is echoed so clients can tell which scenario
    the cells were computed under; absent for the default symmetric
    catalogue, keeping the pre-workload payload byte-identical.
    """
    payload = {"guests": list(guests), "hosts": list(hosts), "cells": cells}
    if workload is not None:
        payload["workload"] = workload
    return payload
