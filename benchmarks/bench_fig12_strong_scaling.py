"""Fig. 12 — strong scaling of 1.92 trillion atoms, 780k -> 24.96M cores.

Paper: near-linear strong scaling; 85% parallel efficiency at 24,960,000
cores (384,000 CGs), with t_stop = 2e-8 s and the tree propensity strategy.

We cannot run 24.96 M cores: a real multi-rank `SublatticeKMC` run
calibrates the per-cycle communication volume, the Fig. 11 SW(opt) ledger
gives the per-event CG compute cost, and the analytic protocol model of
``repro.parallel.scaling_model`` extrapolates to the paper's configurations
(see DESIGN.md for the substitution argument).  Its tail is derived, not
fitted: every CG waits for the slowest CG of its sector, so the compute term
is the expected maximum of the CGs' per-cycle event counts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.io.report import ExperimentReport
from repro.lattice import LatticeState
from repro.parallel import (
    ScalingParameters,
    SublatticeKMC,
    parallel_efficiency,
    strong_scaling,
)
from benchmarks.bench_fig11_serial import _workload_times

PAPER_CG_COUNTS = [12000, 24000, 48000, 96000, 192000, 384000]

#: Derived strong-scaling efficiency at ``PAPER_CG_COUNTS`` with the Fig. 11
#: event cost and 0.05 ghost bytes per boundary cell.
EFFICIENCY = [
    1.0, 0.8674675148583278, 0.7184269062681512,
    0.5637789636962164, 0.4170992360837344, 0.29049827166761255,
]

#: Relative band around ``EFFICIENCY`` for a measured ghost volume: any
#: value from 0 to 5 bytes per boundary cell stays inside it (halo traffic
#: is under 1% of a cycle), so the gate moves with the law, not the RNG.
BYTES_TOLERANCE = 2e-3


def modeled_event_seconds():
    """One vacancy-system evaluation on a CG: Fig. 11's SW(opt) at 6.5 A."""
    return _workload_times(6.5)["SW(opt)"].total


def calibrate(tet, potential, n_ranks=2, seed=3):
    """Measure per-event compute cost and ghost traffic on a real run."""
    lattice = LatticeState((16, 12, 12))
    lattice.randomize_alloy(np.random.default_rng(seed), 0.0134, 0.003)
    sim = SublatticeKMC(
        lattice, potential, tet, n_ranks=n_ranks, temperature=900.0,
        t_stop=2e-10, seed=seed,
    )
    sim.run(16)
    events = max(sim.total_events, 1)
    compute_per_event = sum(c.compute_seconds for c in sim.cycles) / events
    boundary_cells = sum(
        6.0 * (r.window.box.n_cells ** (2.0 / 3.0)) for r in sim.ranks
    )
    bytes_per_boundary_cell = sim.world.stats.bytes_sent / (
        boundary_cells * len(sim.cycles)
    )
    return compute_per_event, bytes_per_boundary_cell


def test_fig12_strong_scaling(tet_small, nnp_tiny, experiment_reports, benchmark):
    compute_per_event, bytes_per_cell = calibrate(tet_small, nnp_tiny)
    # Replace the measured Python-interpreter event cost with the modeled
    # big-fusion evaluation cost of one event on a CG (Fig. 11), keeping the
    # measured communication volume: the *protocol* is what is extrapolated.
    event_seconds = modeled_event_seconds()
    params = ScalingParameters(event_seconds, bytes_per_cell)

    points = strong_scaling(params, atoms_total=1.92e12, cg_counts=PAPER_CG_COUNTS)
    eff = parallel_efficiency(points)

    report = ExperimentReport(
        "Fig. 12", "strong scaling, 1.92T atoms (calibrated protocol model)"
    )
    for p, e in zip(points, eff):
        report.add(
            f"{p.n_cores:,} cores",
            "85% at 24.96M cores" if p.n_cores == 24_960_000 else "(bar)",
            f"cycle {p.cycle_time * 1e3:.2f} ms, efficiency {e * 100:.1f}%",
        )
    report.add(
        "calibration",
        "measured on Sunway",
        f"python run: {compute_per_event * 1e3:.2f} ms/event measured, "
        f"{bytes_per_cell:.3f} B/boundary-cell; modeled CG event "
        f"{event_seconds * 1e3:.3f} ms",
    )
    experiment_reports(report)

    # The derived efficiencies (paper: 85% at 24.96M cores; EXPERIMENTS.md
    # names the input the paper's tail implies).
    assert bytes_per_cell < 5.0
    assert eff == pytest.approx(EFFICIENCY, rel=BYTES_TOLERANCE)
    assert all(b <= a + 1e-12 for a, b in zip(eff, eff[1:]))
    assert points[-1].n_cores == 24_960_000

    # Timed kernel: one real sublattice cycle on simulated ranks.
    lattice = LatticeState((16, 12, 12))
    lattice.randomize_alloy(np.random.default_rng(0), 0.0134, 0.003)
    sim = SublatticeKMC(
        lattice, nnp_tiny, tet_small, n_ranks=2, temperature=900.0,
        t_stop=2e-10, seed=0,
    )
    benchmark(sim.cycle)
