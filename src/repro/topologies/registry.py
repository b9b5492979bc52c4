"""Machine-family registry: the machine-readable Table 4.

Each :class:`FamilySpec` binds a family name to

* a builder that constructs a concrete :class:`Machine` of approximately
  a requested size (picking the nearest valid structural parameter),
* the closed-form bandwidth ``beta`` and minimal-computation-time
  ``delta`` of the paper's Table 4, as exact :class:`LogPoly` expressions
  in the machine size ``n``,
* structural flags (fixed degree, weak, bottleneck-free).

Dimensioned families (mesh, torus, x-grid, mesh-of-trees, multigrid,
pyramid) are exposed per dimension as ``mesh_2``, ``pyramid_3``, ...;
:func:`family_spec` resolves any such key.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable

from repro.asymptotics import LogPoly

if TYPE_CHECKING:
    from repro.topologies.base import Machine

__all__ = ["FamilySpec", "FAMILIES", "family_spec", "all_family_keys"]

ONE = LogPoly.one()
N = LogPoly.n()
LG = LogPoly.log()


@dataclass(frozen=True)
class FamilySpec:
    """Registry entry for one machine family (one Table-4 row)."""

    key: str
    display: str
    build: Callable[..., Machine]
    beta: LogPoly
    delta: LogPoly
    fixed_degree: bool = True
    bottleneck_free: bool = True
    weak: bool = False
    k: int | None = None
    notes: str = ""

    def build_with_size(self, n_target: int, **kwargs) -> Machine:
        """Build a machine of approximately ``n_target`` processors."""
        return self.build(n_target, **kwargs)

    def slowdown_vs(self, host: "FamilySpec") -> LogPoly:
        """Symbolic ``beta_G(n) / beta_H(m)`` is *not* well-typed (different
        variables); use :mod:`repro.theory.slowdown`.  Provided here only
        for same-variable ratios (G and H of equal size)."""
        return self.beta / host.beta


def _pow2_near(n: int, lo: int = 1) -> int:
    best, k = None, lo
    while True:
        size = 2**k
        if best is None or abs(size - n) < abs(2**best - n):
            best = k
        if size > 4 * max(n, 2):
            return best
        k += 1


def _order_near(n: int, size_of_order: Callable[[int], int], lo: int = 1) -> int:
    best, best_err, r = lo, None, lo
    while True:
        size = size_of_order(r)
        err = abs(size - n)
        if best_err is None or err < best_err:
            best, best_err = r, err
        if size > 4 * max(n, 2):
            return best
        r += 1


# -- builders keyed by target node count -------------------------------------
#
# Each builder imports its graph module on its first call, so the
# registry's metadata (keys, display names, beta, Delta) loads no graph
# code: ``repro families`` prints Table 4 without networkx or numpy.


def _b_linear(n, **kw):
    from repro.topologies.linear import build_linear_array

    return build_linear_array(max(2, n))


def _b_ring(n, **kw):
    from repro.topologies.linear import build_ring

    return build_ring(max(3, n))


def _b_bus(n, **kw):
    from repro.topologies.linear import build_global_bus

    return build_global_bus(max(2, n - 2))


def _b_tree(n, **kw):
    from repro.topologies.trees import build_tree

    # n = 2^(h+1) - 1
    return build_tree(max(1, _pow2_near(n + 1, lo=2) - 1))


def _b_xtree(n, **kw):
    from repro.topologies.trees import build_xtree

    return build_xtree(max(1, _pow2_near(n + 1, lo=2) - 1))


def _b_wppn(n, **kw):
    from repro.topologies.trees import build_weak_ppn

    # n = 3 * 2^h - 2
    return build_weak_ppn(max(1, _pow2_near(max(1, (n + 2) // 3))))


def _grid_builder(name, k, min_side=2):
    """The ``repro.topologies.meshes`` builder ``name`` in dimension ``k``."""

    def build(n, **kw):
        from repro.topologies import meshes

        side = max(min_side, round(n ** (1.0 / k)))
        candidates = [s for s in (side - 1, side, side + 1) if s >= min_side]
        best = min(candidates, key=lambda s: abs(s**k - n))
        return getattr(meshes, name)(best, k=k)

    return build


def _pow2_grid_builder(name, k, approx_nodes: Callable[[int, int], int]):
    """The ``repro.topologies.hierarchical`` builder ``name`` in dimension ``k``."""

    def build(n, **kw):
        from repro.topologies import hierarchical

        exp = 1
        best, best_err = 1, None
        while True:
            side = 2**exp
            err = abs(approx_nodes(side, k) - n)
            if best_err is None or err < best_err:
                best, best_err = exp, err
            if approx_nodes(side, k) > 4 * max(n, 2):
                break
            exp += 1
        return getattr(hierarchical, name)(2**best, k=k)

    return build


def _mot_nodes(side, k):
    return side**k + k * side ** (k - 1) * (side - 1)


def _pyramid_nodes(side, k):
    total, s = 0, side
    while s >= 1:
        total += s**k
        s //= 2
    return total


def _b_butterfly(n, **kw):
    from repro.topologies.hypercubic import build_butterfly

    return build_butterfly(_order_near(n, lambda r: (r + 1) * 2**r))


def _b_wbutterfly(n, **kw):
    from repro.topologies.hypercubic import build_butterfly

    return build_butterfly(
        _order_near(n, lambda r: r * 2**r, lo=3), wrapped=True
    )


def _b_ccc(n, **kw):
    from repro.topologies.hypercubic import build_ccc

    return build_ccc(_order_near(n, lambda r: r * 2**r, lo=3))


def _b_se(n, **kw):
    from repro.topologies.hypercubic import build_shuffle_exchange

    return build_shuffle_exchange(max(2, _pow2_near(n, lo=2)))


def _b_db(n, **kw):
    from repro.topologies.hypercubic import build_de_bruijn

    return build_de_bruijn(max(2, _pow2_near(n, lo=2)))


def _b_hc(n, **kw):
    from repro.topologies.hypercubic import build_hypercube

    return build_hypercube(max(1, _pow2_near(n)))


def _b_whc(n, **kw):
    from repro.topologies.hypercubic import build_weak_hypercube

    return build_weak_hypercube(max(1, _pow2_near(n)))


def _b_expander(n, seed=None, degree=4, **kw):
    from repro.topologies.randomized import build_expander

    n = max(degree + 2, n)
    if (n * degree) % 2:
        n += 1
    return build_expander(n, degree=degree, seed=seed)


def _b_fat_tree(n, **kw):
    from repro.topologies.clos import build_fat_tree, fat_tree_nodes

    # radix k = 2r, the even radix whose node count lands nearest n
    return build_fat_tree(2 * _order_near(n, lambda r: fat_tree_nodes(2 * r)))


def _b_dragonfly(n, **kw):
    from repro.topologies.clos import build_dragonfly, dragonfly_nodes

    return build_dragonfly(_order_near(n, dragonfly_nodes, lo=2))


def _b_mbf(n, seed=None, multiplicity=2, **kw):
    from repro.topologies.randomized import build_multibutterfly

    return build_multibutterfly(
        _order_near(n, lambda r: (r + 1) * 2**r), multiplicity=multiplicity, seed=seed
    )


def _mesh_beta(k: int) -> LogPoly:
    return LogPoly.n(Fraction(k - 1, k))


def _mesh_delta(k: int) -> LogPoly:
    return LogPoly.n(Fraction(1, k))


def _make_families() -> dict[str, FamilySpec]:
    fams: dict[str, FamilySpec] = {}

    def add(spec: FamilySpec) -> None:
        if spec.key in fams:
            raise ValueError(f"duplicate family key {spec.key}")
        fams[spec.key] = spec

    add(FamilySpec("linear_array", "Linear Array", _b_linear, ONE, N))
    add(FamilySpec("ring", "Ring", _b_ring, ONE, N))
    add(
        FamilySpec(
            "global_bus",
            "Global Bus",
            _b_bus,
            ONE,
            ONE,
            fixed_degree=False,
            notes="two-hub single-link bus gadget",
        )
    )
    add(FamilySpec("tree", "Tree", _b_tree, ONE, LG))
    add(
        FamilySpec(
            "weak_ppn",
            "Weak PPN",
            _b_wppn,
            ONE,
            LG,
            weak=True,
            notes="weak parallel prefix network: port_limit=1",
        )
    )
    add(FamilySpec("xtree", "X-Tree", _b_xtree, LG, LG))

    for k in (1, 2, 3, 4):
        add(
            FamilySpec(
                f"mesh_{k}",
                f"Mesh_{k}",
                _grid_builder("build_mesh", k),
                _mesh_beta(k),
                _mesh_delta(k),
                k=k,
            )
        )
        add(
            FamilySpec(
                f"torus_{k}",
                f"Torus_{k}",
                _grid_builder("build_torus", k, min_side=3),
                _mesh_beta(k),
                _mesh_delta(k),
                k=k,
            )
        )
        add(
            FamilySpec(
                f"xgrid_{k}",
                f"X-Grid_{k}",
                _grid_builder("build_xgrid", k),
                _mesh_beta(k),
                _mesh_delta(k),
                fixed_degree=(k <= 4),
                k=k,
            )
        )
        add(
            FamilySpec(
                f"mesh_of_trees_{k}",
                f"Mesh of Trees_{k}",
                _pow2_grid_builder("build_mesh_of_trees", k, _mot_nodes),
                _mesh_beta(k),
                LG,
                k=k,
            )
        )
        add(
            FamilySpec(
                f"multigrid_{k}",
                f"Multigrid_{k}",
                _pow2_grid_builder("build_multigrid", k, _pyramid_nodes),
                _mesh_beta(k),
                LG,
                k=k,
            )
        )
        add(
            FamilySpec(
                f"pyramid_{k}",
                f"Pyramid_{k}",
                _pow2_grid_builder("build_pyramid", k, _pyramid_nodes),
                _mesh_beta(k),
                LG,
                k=k,
            )
        )

    bf_beta = N / LG
    add(FamilySpec("butterfly", "Butterfly", _b_butterfly, bf_beta, LG))
    add(
        FamilySpec(
            "wrapped_butterfly",
            "Wrapped Butterfly",
            _b_wbutterfly,
            bf_beta,
            LG,
            notes="levels 0 and r identified",
        )
    )
    add(FamilySpec("ccc", "Cube-Connected-Cycles", _b_ccc, bf_beta, LG))
    add(FamilySpec("shuffle_exchange", "Shuffle-Exchange", _b_se, bf_beta, LG))
    add(FamilySpec("de_bruijn", "de Bruijn", _b_db, bf_beta, LG))
    add(
        FamilySpec(
            "multibutterfly",
            "Multibutterfly",
            _b_mbf,
            bf_beta,
            LG,
            notes="random-splitter construction, seeded",
        )
    )
    add(
        FamilySpec(
            "expander",
            "Expander",
            _b_expander,
            bf_beta,
            LG,
            notes="random regular graph, seeded",
        )
    )
    add(
        FamilySpec(
            "weak_hypercube",
            "Weak Hypercube",
            _b_whc,
            bf_beta,
            LG,
            fixed_degree=False,
            weak=True,
        )
    )
    add(
        FamilySpec(
            "hypercube",
            "Hypercube",
            _b_hc,
            N,
            LG,
            fixed_degree=False,
            notes="strong hypercube: all wires usable; beta = Theta(n)",
        )
    )
    # Modern datacenter fabrics (post-paper; see topologies/clos.py).
    # Both are engineered for full bisection, so their bisection-derived
    # beta is Theta(n) -- hypercube-class -- at Theta(1) diameter.
    add(
        FamilySpec(
            "fat_tree",
            "Fat-Tree",
            _b_fat_tree,
            N,
            ONE,
            fixed_degree=False,
            notes="3-level k-ary folded Clos; full bisection gives "
            "beta = Theta(n)",
        )
    )
    add(
        FamilySpec(
            "dragonfly",
            "Dragonfly",
            _b_dragonfly,
            N,
            ONE,
            fixed_degree=False,
            notes="fully-meshed groups, one global link per group pair; "
            "group bisection gives beta = Theta(n)",
        )
    )
    return fams


#: All registered family specs, keyed by family key.
FAMILIES: dict[str, FamilySpec] = _make_families()


def family_spec(key: str) -> FamilySpec:
    """Look up a family by key (e.g. ``"mesh_2"``, ``"de_bruijn"``)."""
    try:
        return FAMILIES[key]
    except KeyError:
        raise KeyError(
            f"unknown machine family {key!r}; known: {sorted(FAMILIES)}"
        ) from None


def all_family_keys() -> list[str]:
    """Sorted list of every registered family key."""
    return sorted(FAMILIES)
