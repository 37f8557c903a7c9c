"""Engine throughput matrix — the performance-regression harness.

Reports KMC events/second of this Python implementation across the
configuration axes that matter (cutoff, potential, cache),
so optimisation work has a stable baseline.  Nothing here compares to the
paper directly — this is repository infrastructure.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.baseline import OpenKMCEngine
from repro.core import TensorKMCEngine, TripleEncoding
from repro.io.report import ExperimentReport
from repro.lattice import LatticeState
from repro.potentials import EAMPotential

N_STEPS = 120


def _throughput(engine) -> float:
    engine.step()  # warm the caches / first rebuilds
    t0 = time.perf_counter()
    engine.run(n_steps=N_STEPS)
    return N_STEPS / (time.perf_counter() - t0)


def _best_interleaved(makers, rounds: int = 3) -> Dict[str, float]:
    """Best-of-``rounds`` events/s of each engine maker, timed interleaved
    (A B A B ...), a fresh engine each time: a slow phase of a shared host
    or a concurrent process then slows every maker's rounds alike instead
    of one maker's only."""
    best = {name: 0.0 for name in makers}
    for _ in range(rounds):
        for name, make in makers.items():
            best[name] = max(best[name], _throughput(make()))
    return best


def _make(rcut, nnp_tiny, cached=True, seed=3):
    tet = TripleEncoding(rcut=rcut)
    if nnp_tiny is not None and rcut == 2.87:
        potential = nnp_tiny
    else:
        potential = EAMPotential(tet.shell_distances)
    lattice = LatticeState((10, 10, 10))
    lattice.randomize_alloy(np.random.default_rng(seed), 0.0134, 0.002)
    kwargs = dict(temperature=800.0, rng=np.random.default_rng(1))
    if not cached:
        return OpenKMCEngine(
            lattice, potential, tet, maintain_atom_arrays=False, **kwargs
        )
    return TensorKMCEngine(lattice, potential, tet, **kwargs)


def test_throughput_matrix(nnp_tiny, experiment_reports, benchmark):
    # The one asserted comparison: both modes timed interleaved, best of 3.
    eam = _best_interleaved({
        "cached": lambda: _make(2.87, None),
        "cache-all": lambda: _make(2.87, None, cached=False),
    })
    rows: Dict[str, float] = {}
    rows["EAM, rcut 2.87, cached"] = eam["cached"]
    rows["NNP, rcut 2.87, cached"] = _throughput(_make(2.87, nnp_tiny))
    rows["EAM, rcut 6.5, cached"] = _throughput(_make(6.5, None))
    rows["EAM, rcut 2.87, cache-all"] = eam["cache-all"]

    report = ExperimentReport(
        "Throughput", "KMC events/second (Python, one core, 10^3-cell box)"
    )
    for name, eps in rows.items():
        report.add(name, "(regression baseline)", f"{eps:,.0f} events/s")
    experiment_reports(report)

    # Structural expectations, loose enough to be timing-robust.
    assert rows["EAM, rcut 2.87, cached"] > rows["EAM, rcut 2.87, cache-all"]
    assert all(eps > 5.0 for eps in rows.values())

    engine = _make(2.87, None)
    engine.step()
    benchmark(engine.step)
