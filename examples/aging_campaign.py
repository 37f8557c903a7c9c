#!/usr/bin/env python3
"""Aging campaign: precipitation kinetics across a temperature sweep.

The kind of study a downstream user runs with this library: the same
Fe - 1.34 at.% Cu alloy is thermally aged at several temperatures for a fixed
*simulated* duration, with checkpoints and XYZ exports per condition, and the
campaign summary reports how temperature accelerates the microstructural
evolution (an Arrhenius-like trend in the per-time event throughput).

Run:  python examples/aging_campaign.py  [--steps 3000]
"""

from __future__ import annotations

import argparse
import os
import tempfile

import numpy as np

from repro import TensorKMCEngine, TripleEncoding
from repro.analysis import analyse_precipitation, warren_cowley
from repro.constants import VACANCY
from repro.io import save_checkpoint, write_xyz
from repro.lattice import LatticeState
from repro.potentials import EAMPotential

TEMPERATURES = (500.0, 600.0, 700.0)


def age_at(temperature: float, steps: int, outdir: str):
    tet = TripleEncoding(rcut=2.87)
    potential = EAMPotential(tet.shell_distances)
    lattice = LatticeState((12, 12, 12))
    rng = np.random.default_rng(12)
    lattice.randomize_alloy(rng, cu_fraction=0.0134, vacancy_fraction=0.0)
    ids = rng.choice(lattice.n_sites, 6, replace=False)
    lattice.occupancy[ids] = VACANCY

    engine = TensorKMCEngine(
        lattice, potential, tet, temperature=temperature,
        rng=np.random.default_rng(1),
    )
    initial_propensity = engine.total_propensity()
    engine.run(n_steps=steps)

    stats = analyse_precipitation(lattice, engine.time)
    alpha = warren_cowley(lattice, rcut=2.87).get(0, 0.0)

    tag = f"T{temperature:.0f}"
    save_checkpoint(os.path.join(outdir, f"{tag}.npz"), engine)
    with open(os.path.join(outdir, f"{tag}.xyz"), "w") as fh:
        write_xyz(fh, lattice, time=engine.time, species_filter=[1, VACANCY])

    return {
        "temperature": temperature,
        "sim_time": engine.time,
        "events_per_sim_second": steps / engine.time,
        "initial_propensity": initial_propensity,
        "isolated": stats.isolated,
        "max_cluster": stats.max_size,
        "alpha_1nn": alpha,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--steps", type=int, default=3000)
    parser.add_argument("--outdir", type=str, default=None)
    args = parser.parse_args()
    outdir = args.outdir or tempfile.mkdtemp(prefix="aging_campaign_")
    os.makedirs(outdir, exist_ok=True)

    print(f"{'T (K)':>6}  {'sim time (s)':>12}  {'events/s(sim)':>14}  "
          f"{'isolated':>8}  {'max':>4}  {'alpha_1NN':>10}")
    results = [age_at(t, args.steps, outdir) for t in TEMPERATURES]
    for r in results:
        print(f"{r['temperature']:6.0f}  {r['sim_time']:12.3e}  "
              f"{r['events_per_sim_second']:14.3e}  {r['isolated']:8d}  "
              f"{r['max_cluster']:4d}  {r['alpha_1nn']:+10.4f}")

    # Arrhenius check on the *same* starting configuration: the total
    # propensity grows strictly with temperature.  (The time-averaged event
    # rate over a trajectory can be non-monotonic once vacancies fall into
    # traps — deep states dominate the clock — which is itself a useful
    # observation about aged microstructures.)
    props = [r["initial_propensity"] for r in results]
    assert props[0] < props[1] < props[2], "propensity must grow with T"
    print(f"\ninitial-propensity ratio {TEMPERATURES[-1]:.0f}K / "
          f"{TEMPERATURES[0]:.0f}K: {props[-1] / props[0]:.1f}x "
          f"(Arrhenius acceleration)")
    print(f"checkpoints and XYZ snapshots in {outdir}")


if __name__ == "__main__":
    main()
