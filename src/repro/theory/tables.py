"""Programmatic generation of the paper's Tables 1-4.

Every cell of Tables 1-3 is *derived* by the monomial solver (via
:func:`repro.theory.host_size.max_host_size`); Table 4 is read from the
registry (where the closed forms live as exact LogPolys).  The benches
print these tables and EXPERIMENTS.md records them against the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asymptotics import Bound
from repro.theory.host_size import max_host_size
from repro.topologies.registry import family_spec

__all__ = [
    "TableRow",
    "generate_table",
    "generate_table1",
    "generate_table2",
    "generate_table3",
    "generate_table4",
    "TABLE1_HOSTS",
    "TABLE2_HOSTS",
    "TABLE3_HOSTS",
    "TABLE4_FAMILIES",
]


@dataclass(frozen=True)
class TableRow:
    """One table cell: a host family and its maximum efficient size."""

    guest_key: str
    host_key: str
    bound: Bound

    @property
    def host_display(self) -> str:
        return family_spec(self.host_key).display

    def cell(self) -> str:
        """Paper-style rendering: |H| <= O(f(|G|))."""
        return f"|H| <= {self.bound.render('|G|')}"


def _host_keys(hosts: list[str], k_values: tuple[int, ...]) -> list[str]:
    """Expand dimensioned host-family stems with each k in k_values."""
    out: list[str] = []
    for h in hosts:
        if h.endswith("_k"):
            out.extend(f"{h[:-2]}_{k}" for k in k_values)
        else:
            out.append(h)
    return out


#: Host lists exactly as printed in the paper's three tables.
TABLE1_HOSTS = [
    "linear_array",
    "tree",
    "global_bus",
    "weak_ppn",
    "xtree",
    "mesh_k",
    "pyramid_k",
    "multigrid_k",
    "mesh_of_trees_k",
]
TABLE2_HOSTS = TABLE1_HOSTS + ["xgrid_k"]
TABLE3_HOSTS = TABLE2_HOSTS

#: The Table-4 row order (beta and Delta per family).
TABLE4_FAMILIES = [
    "linear_array",
    "global_bus",
    "tree",
    "weak_ppn",
    "xtree",
    "mesh_2",
    "mesh_3",
    "mesh_of_trees_2",
    "multigrid_2",
    "pyramid_2",
    "butterfly",
    "ccc",
    "shuffle_exchange",
    "de_bruijn",
    "multibutterfly",
    "expander",
    "weak_hypercube",
    "hypercube",
]


def generate_table(
    guest_key: str, hosts: list[str], k_values: tuple[int, ...] = (1, 2, 3)
) -> list[TableRow]:
    """Maximum-host-size rows for one guest family."""
    rows = []
    for host_key in _host_keys(hosts, k_values):
        rows.append(
            TableRow(
                guest_key=guest_key,
                host_key=host_key,
                bound=max_host_size(guest_key, host_key),
            )
        )
    return rows


def generate_table1(
    j: int = 2, guest: str = "mesh", k_values: tuple[int, ...] = (1, 2, 3)
) -> list[TableRow]:
    """Table 1: guests are j-dimensional meshes / tori / x-grids."""
    if guest not in ("mesh", "torus", "xgrid"):
        raise ValueError(f"table-1 guest must be mesh/torus/xgrid, got {guest}")
    return generate_table(f"{guest}_{j}", TABLE1_HOSTS, k_values)


def generate_table2(
    j: int = 2,
    guest: str = "mesh_of_trees",
    k_values: tuple[int, ...] = (1, 2, 3),
) -> list[TableRow]:
    """Table 2: guests are j-dim mesh-of-trees / multigrids / pyramids."""
    if guest not in ("mesh_of_trees", "multigrid", "pyramid"):
        raise ValueError(
            f"table-2 guest must be mesh_of_trees/multigrid/pyramid, got {guest}"
        )
    return generate_table(f"{guest}_{j}", TABLE2_HOSTS, k_values)


def generate_table3(
    guest: str = "de_bruijn", k_values: tuple[int, ...] = (1, 2, 3)
) -> list[TableRow]:
    """Table 3: guests are the butterfly-class machines."""
    allowed = (
        "butterfly",
        "wrapped_butterfly",
        "de_bruijn",
        "shuffle_exchange",
        "ccc",
        "multibutterfly",
        "expander",
        "weak_hypercube",
    )
    if guest not in allowed:
        raise ValueError(f"table-3 guest must be one of {allowed}, got {guest}")
    return generate_table(guest, TABLE3_HOSTS, k_values)


def generate_table4(
    families: list[str] | None = None,
) -> list[tuple[str, str, str]]:
    """Table 4 rows: (family display, beta, Delta)."""
    rows = []
    for key in families or TABLE4_FAMILIES:
        spec = family_spec(key)
        rows.append((spec.display, f"Theta({spec.beta})", f"Theta({spec.delta})"))
    return rows
