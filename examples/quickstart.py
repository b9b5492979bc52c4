#!/usr/bin/env python
"""Quickstart: the paper's worked example, end to end.

The introduction of Kruskal & Rappoport (SPAA '94) walks one example:
emulating an n-processor de Bruijn graph on an m-processor 2-d mesh has
communication-induced slowdown S_c >= Omega(n / (sqrt(m) lg n)), so an
*efficient* emulation forces m <= O(lg^2 n) -- only tiny meshes can keep
up with a de Bruijn graph.

This script reproduces that chain with the library's three levels:

1. symbolic  -- exact Theta-algebra over the Table-4 closed forms;
2. certified -- graph-theoretic bandwidth brackets on concrete machines;
3. empirical -- packet-routing measurements and an actual emulation.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    Emulator,
    beta_bracket,
    beta_value,
    family_spec,
    max_host_size,
    measure_bandwidth,
    symbolic_slowdown,
)


def main() -> None:
    print("=" * 72)
    print("Step 1: the symbolic bound (Theorem 1 + Table 4)")
    print("=" * 72)
    bound = symbolic_slowdown("de_bruijn", "mesh_2")
    print(f"  beta(de Bruijn, n) = Theta({bound.beta_guest})")
    print(f"  beta(mesh_2, m)    = Theta({str(bound.beta_host).replace('n', 'm')})")
    print(f"  {bound}")
    host = max_host_size("de_bruijn", "mesh_2")
    print(f"  setting S_c = n/m and solving:  |H| <= {host.render('n')}")
    print()

    print("=" * 72)
    print("Step 2: certified bandwidth brackets on concrete machines")
    print("=" * 72)
    guest = family_spec("de_bruijn").build_with_size(256)
    hosts = [family_spec("mesh_2").build_with_size(m) for m in (16, 64, 196)]
    bg = beta_bracket(guest)
    print(f"  guest {guest.name}: beta in [{bg.lower:.1f}, {bg.upper:.1f}]"
          f"  (closed form {beta_value('de_bruijn', guest.num_nodes):.1f})")
    for h in hosts:
        bh = beta_bracket(h)
        print(
            f"  host  {h.name:18s}: beta in [{bh.lower:.1f}, {bh.upper:.1f}]"
            f"  -> slowdown >= {bg.lower / bh.upper:.2f}"
        )
    print()

    print("=" * 72)
    print("Step 3: measure it -- route packets and emulate")
    print("=" * 72)
    meas = measure_bandwidth(guest, seed=0)
    print(f"  operational rate of the guest: {meas.rate:.1f} msgs/tick "
          f"({meas.num_messages} msgs in {meas.total_time} ticks)")
    for h in hosts:
        rep = Emulator(guest, h).run(4)
        marker = " <= efficient regime" if rep.slowdown <= 2.5 * rep.load_bound else ""
        print(
            f"  emulate on {h.name:18s}: S = {rep.slowdown:8.1f}  "
            f"(load bound {rep.load_bound:6.1f}, bandwidth bound "
            f"{rep.bandwidth_bound:6.2f}){marker}"
        )
    print()
    print("Reading: once the mesh host grows past ~lg^2 n processors, the")
    print("measured slowdown exceeds the load bound n/m -- the emulation")
    print("wastes work, exactly as the Efficient Emulation Theorem says.")


if __name__ == "__main__":
    main()
