"""Shared fixtures: small representative machines for every family, and a
pinned CPU count for parallel sweeps."""

from __future__ import annotations

import os

import pytest

from repro.topologies import (
    build_butterfly,
    build_ccc,
    build_de_bruijn,
    build_expander,
    build_global_bus,
    build_hypercube,
    build_linear_array,
    build_mesh,
    build_mesh_of_trees,
    build_multibutterfly,
    build_multigrid,
    build_pyramid,
    build_ring,
    build_shuffle_exchange,
    build_torus,
    build_tree,
    build_weak_hypercube,
    build_weak_ppn,
    build_xgrid,
    build_xtree,
)


@pytest.fixture(scope="session")
def small_machines():
    """One small concrete machine per family (shared, do not mutate)."""
    return {
        "linear_array": build_linear_array(16),
        "ring": build_ring(16),
        "global_bus": build_global_bus(16),
        "tree": build_tree(4),
        "weak_ppn": build_weak_ppn(4),
        "xtree": build_xtree(4),
        "mesh_2": build_mesh(4, 2),
        "mesh_3": build_mesh(3, 3),
        "torus_2": build_torus(4, 2),
        "xgrid_2": build_xgrid(4, 2),
        "mesh_of_trees_2": build_mesh_of_trees(4, 2),
        "multigrid_2": build_multigrid(4, 2),
        "pyramid_2": build_pyramid(4, 2),
        "butterfly": build_butterfly(3),
        "ccc": build_ccc(3),
        "shuffle_exchange": build_shuffle_exchange(4),
        "de_bruijn": build_de_bruijn(4),
        "hypercube": build_hypercube(4),
        "weak_hypercube": build_weak_hypercube(4),
        "expander": build_expander(16, degree=4, seed=7),
        "multibutterfly": build_multibutterfly(3, multiplicity=1, seed=7),
    }


@pytest.fixture
def mesh8():
    """An 8x8 mesh, the workhorse mid-size machine."""
    return build_mesh(8, 2)


@pytest.fixture
def two_cpus(monkeypatch):
    """Pin the CPU count at 2 so ``run_sweep(executor="parallel")`` forks
    two fabric workers on any machine (on one CPU it runs serially)."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
