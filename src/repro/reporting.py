"""One-command reproduction: run every experiment, write artifacts.

``reproduce_all(out_dir)`` regenerates each of the paper's tables and
figures through the same code paths the benches use and writes one JSON
artifact per experiment (plus a combined ``summary.json``), so a
downstream user can diff two runs, plot the figure series, or audit the
exact numbers in EXPERIMENTS.md without reading pytest output.

Exposed on the CLI as ``python -m repro reproduce [--out DIR] [--quick]``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Callable

from repro.bandwidth import beta_bracket, beta_value, delta_value
from repro.routing import measure_bandwidth, saturation_sweep
from repro.theory import (
    bottleneck_freeness,
    catalog_consistency_violations,
    expander_gap_experiment,
    figure1_data,
    full_catalog,
    generate_table1,
    generate_table2,
    generate_table3,
    generate_table4,
)
from repro.emulation import CellularGuest, GhostZoneEmulator, build_gamma
from repro.topologies import build_de_bruijn, build_mesh, build_ring, family_spec

__all__ = ["reproduce_all", "EXPERIMENTS"]


def _exp_table1() -> dict[str, Any]:
    out = {}
    for guest in ("mesh", "torus", "xgrid"):
        for j in (1, 2, 3):
            rows = generate_table1(j=j, guest=guest)
            out[f"{guest}_{j}"] = {r.host_key: str(r.bound.expr) for r in rows}
    return out


def _exp_table2() -> dict[str, Any]:
    out = {}
    for guest in ("mesh_of_trees", "multigrid", "pyramid"):
        for j in (2, 3):
            rows = generate_table2(j=j, guest=guest)
            out[f"{guest}_{j}"] = {r.host_key: str(r.bound.expr) for r in rows}
    return out


def _exp_table3() -> dict[str, Any]:
    out = {}
    for guest in ("butterfly", "de_bruijn", "ccc", "shuffle_exchange",
                  "multibutterfly", "expander", "weak_hypercube"):
        rows = generate_table3(guest)
        out[guest] = {r.host_key: str(r.bound.expr) for r in rows}
    return out


def _exp_table4(quick: bool = False) -> dict[str, Any]:
    out: dict[str, Any] = {"symbolic": {}}
    for display, beta, delta in generate_table4():
        out["symbolic"][display] = {"beta": beta, "delta": delta}
    families = ["linear_array", "tree", "xtree", "mesh_2", "de_bruijn"]
    if not quick:
        families += ["butterfly", "ccc", "shuffle_exchange", "pyramid_2",
                     "mesh_of_trees_2", "expander", "hypercube"]
    measured = {}
    for key in families:
        m = family_spec(key).build_with_size(128 if quick else 200)
        br = beta_bracket(m)
        op = measure_bandwidth(m, seed=0)
        measured[key] = {
            "n": m.num_nodes,
            "beta_formula": beta_value(key, m.num_nodes),
            "beta_lower": br.lower,
            "beta_upper": br.upper,
            "beta_measured": op.rate,
            "diameter": m.diameter(),
            "delta_formula": delta_value(key, m.num_nodes),
        }
    out["measured"] = measured
    bn = {}
    for key in ("tree", "mesh_2", "de_bruijn"):
        m = family_spec(key).build_with_size(64 if quick else 128)
        rep = bottleneck_freeness(m, trials=3 if quick else 6, seed=0)
        bn[key] = {"worst_ratio": rep.worst_ratio, "ok": rep.is_bottleneck_free()}
    out["bottleneck_freeness"] = bn
    return out


def _exp_figure1(quick: bool = False) -> dict[str, Any]:
    n = 2**12 if quick else 2**14
    f1 = figure1_data("de_bruijn", "mesh_2", n)
    return {
        "guest": "de_bruijn",
        "host": "mesh_2",
        "n": n,
        "m_values": f1.m_values,
        "load_bounds": f1.load_bounds,
        "bandwidth_bounds": f1.bandwidth_bounds,
        "crossover_symbolic": str(f1.crossover_symbolic.expr),
        "crossover_numeric": f1.crossover_numeric,
    }


def _exp_figure2(quick: bool = False) -> dict[str, Any]:
    guests = [build_ring(16), build_mesh(4, 2), build_de_bruijn(4 if quick else 5)]
    out = []
    for g in guests:
        gc = build_gamma(g)
        out.append(
            {
                "guest": g.name,
                "n": gc.n,
                "depth": gc.depth,
                "gamma_vertices": gc.num_gamma_vertices,
                "gamma_edges": gc.num_gamma_edges,
                "congestion": gc.congestion,
                "beta_gamma_lower": gc.beta_gamma_lower,
                "ratio": gc.bandwidth_ratio(),
            }
        )
    return {"constructions": out}


def _exp_redundancy(quick: bool = False) -> dict[str, Any]:
    n, m, steps = (512, 16, 8) if quick else (2048, 32, 16)
    guest = CellularGuest(n, ring=True)
    s0 = guest.initial_state(seed=1)
    rows = []
    for alpha in (0, 64):
        for w in (1, 4, 8):
            _, rep = GhostZoneEmulator(guest, m, halo_width=w, alpha=alpha).run(
                s0.copy(), steps
            )
            rows.append(
                {
                    "alpha": alpha,
                    "halo": w,
                    "slowdown": rep.slowdown,
                    "load_bound": rep.load_bound,
                    "inefficiency": rep.inefficiency,
                }
            )
    return {"n": n, "m": m, "steps": steps, "points": rows}


def _exp_saturation(quick: bool = False) -> dict[str, Any]:
    out = {}
    for key in ("linear_array", "mesh_2", "de_bruijn"):
        mach = family_spec(key).build_with_size(64)
        pts = saturation_sweep(mach, duration=48 if quick else 96, seed=0)
        out[key] = [
            {
                "offered": p.offered_rate,
                "delivered": p.delivered_rate,
                "mean_latency": p.mean_latency,
                "p99_latency": p.p99_latency,
            }
            for p in pts
        ]
    return out


def _exp_expander_gap(quick: bool = False) -> dict[str, Any]:
    sizes = [64, 128] if quick else [64, 128, 256, 512]
    gap = expander_gap_experiment(sizes=sizes)
    return {
        key: [
            {
                "n": p.guest_size,
                "beta_lower": p.beta_lower,
                "beta_upper": p.beta_upper,
                "normalized_beta": p.normalized_beta,
                "lambda2": p.lambda2,
            }
            for p in pts
        ]
        for key, pts in gap.items()
    }


def _exp_catalog(quick: bool = False) -> dict[str, Any]:
    keys = (
        ["linear_array", "xtree", "mesh_2", "de_bruijn"]
        if quick
        else ["linear_array", "tree", "xtree", "mesh_2", "mesh_3",
              "pyramid_2", "butterfly", "de_bruijn", "expander", "hypercube"]
    )
    entries = full_catalog(guests=keys, hosts=keys)
    violations = catalog_consistency_violations(entries)
    return {
        "cells": {
            f"{e.guest_key}|{e.host_key}": str(e.bound.expr) for e in entries
        },
        "violations": violations,
    }


#: Experiment registry: id -> (description, runner(quick) -> jsonable).
EXPERIMENTS: dict[str, tuple[str, Callable[[bool], dict[str, Any]]]] = {
    "table1": ("max host sizes, mesh/torus/xgrid guests", lambda q: _exp_table1()),
    "table2": ("max host sizes, MoT/multigrid/pyramid guests", lambda q: _exp_table2()),
    "table3": ("max host sizes, butterfly-class guests", lambda q: _exp_table3()),
    "table4": ("beta and Delta per family, 3 ways", _exp_table4),
    "figure1": ("slowdown curves + crossover", _exp_figure1),
    "figure2": ("Lemma-9 gamma construction", _exp_figure2),
    "redundancy": ("ghost-zone upper bound", _exp_redundancy),
    "saturation": ("offered-load sweeps", _exp_saturation),
    "expander_gap": ("Section-1.2 blind spot", _exp_expander_gap),
    "catalog": ("full guest x host matrix + laws", _exp_catalog),
}


def reproduce_all(
    out_dir: str | Path, quick: bool = False, only: list[str] | None = None
) -> dict[str, Any]:
    """Run every experiment and write one JSON artifact each.

    Returns the summary dict (also written to ``summary.json``).
    ``quick`` shrinks sizes for a fast smoke run; ``only`` restricts to a
    subset of experiment ids (``ValueError`` for an unknown one).
    """
    chosen = only or list(EXPERIMENTS)
    unknown = [k for k in chosen if k not in EXPERIMENTS]
    if unknown:
        raise ValueError(f"unknown experiments {unknown}; known: {sorted(EXPERIMENTS)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary: dict[str, Any] = {"quick": quick, "experiments": {}}
    for key in chosen:
        desc, runner = EXPERIMENTS[key]
        t0 = time.perf_counter()
        data = runner(quick)
        elapsed = time.perf_counter() - t0
        payload = {"id": key, "description": desc, "seconds": elapsed, "data": data}
        (out / f"{key}.json").write_text(json.dumps(payload, indent=2))
        summary["experiments"][key] = {"description": desc, "seconds": elapsed}
    (out / "summary.json").write_text(json.dumps(summary, indent=2))
    return summary
