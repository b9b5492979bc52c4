"""Fixed-connection network machine generators.

Every machine family named in the paper is constructible here, either
directly (``build_mesh(side, k)``) or through the registry by approximate
size (``family_spec("mesh_2").build_with_size(4096)``).
"""

from repro.util.lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.topologies.base": ("Machine",),
    "repro.topologies.clos": ("build_dragonfly", "build_fat_tree"),
    "repro.topologies.hierarchical": (
        "build_mesh_of_trees",
        "build_multigrid",
        "build_pyramid",
    ),
    "repro.topologies.hypercubic": (
        "build_butterfly",
        "build_ccc",
        "build_de_bruijn",
        "build_hypercube",
        "build_shuffle_exchange",
        "build_weak_hypercube",
    ),
    "repro.topologies.linear": (
        "build_global_bus",
        "build_linear_array",
        "build_ring",
    ),
    "repro.topologies.meshes": (
        "build_mesh",
        "build_torus",
        "build_xgrid",
        "mesh_side_for_size",
    ),
    "repro.topologies.randomized": ("build_expander", "build_multibutterfly"),
    "repro.topologies.registry": (
        "FAMILIES",
        "FamilySpec",
        "all_family_keys",
        "family_spec",
    ),
    "repro.topologies.trees": ("build_tree", "build_weak_ppn", "build_xtree"),
})

__all__ = [
    "FAMILIES",
    "FamilySpec",
    "Machine",
    "all_family_keys",
    "build_butterfly",
    "build_ccc",
    "build_de_bruijn",
    "build_dragonfly",
    "build_expander",
    "build_fat_tree",
    "build_global_bus",
    "build_hypercube",
    "build_linear_array",
    "build_mesh",
    "build_mesh_of_trees",
    "build_multibutterfly",
    "build_multigrid",
    "build_pyramid",
    "build_ring",
    "build_shuffle_exchange",
    "build_torus",
    "build_tree",
    "build_weak_hypercube",
    "build_weak_ppn",
    "build_xgrid",
    "build_xtree",
    "family_spec",
    "mesh_side_for_size",
]
