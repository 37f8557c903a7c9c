#!/usr/bin/env python3
"""Parallel AKMC with the synchronous sublattice algorithm (paper Sec. 2.2).

Decomposes a periodic alloy box over simulated MPI ranks, runs sublattice
cycles with ghost synchronisation at t_stop intervals, verifies the
conflict-freedom invariants, and prints the communication statistics the
scaling model (Figs. 12-13) is calibrated from.

Run:  python examples/parallel_sublattice.py  [--ranks 4] [--cycles 32]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import TripleEncoding
from repro.lattice import LatticeState
from repro.parallel import SublatticeKMC
from repro.potentials import EAMPotential


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ranks", type=int, default=4)
    parser.add_argument("--cycles", type=int, default=32)
    parser.add_argument("--box", type=int, default=16)
    args = parser.parse_args()

    tet = TripleEncoding(rcut=2.87)
    potential = EAMPotential(tet.shell_distances)

    lattice = LatticeState((args.box,) * 3)
    lattice.randomize_alloy(
        np.random.default_rng(3), cu_fraction=0.0134, vacancy_fraction=3e-3
    )
    before = lattice.species_counts().copy()

    sim = SublatticeKMC(
        lattice, potential, tet, n_ranks=args.ranks, temperature=900.0,
        t_stop=2e-10, seed=5,
    )
    print(f"decomposition: grid {sim.decomposition.grid}, "
          f"ghost {tet.ghost_cells} cells")
    for rank in sim.ranks:
        print(f"  rank {rank.rank}: box {rank.window.box.lo} -> "
              f"{rank.window.box.hi}, {len(rank.kernel.live_slots())} vacancies")

    sim.run(args.cycles)

    print(f"\nafter {args.cycles} cycles (t = {sim.time:.2e} s):")
    print(f"  events executed: {sim.total_events}")
    print(f"  rejected boundary events: {sum(c.rejected for c in sim.cycles)}")
    print(f"  ghost messages: {sim.world.stats.messages_sent}, "
          f"bytes: {sim.world.stats.bytes_sent}")

    gathered = sim.gather_global()
    assert np.array_equal(gathered.species_counts(), before), "atoms lost!"
    assert sim.check_ghost_consistency(), "ghost regions diverged!"
    print("  invariants: species conserved OK, ghost regions consistent OK")


if __name__ == "__main__":
    main()
