"""Fig. 13 — weak scaling up to 54.067 trillion atoms (27,456,000 cores).

Paper: 128 M atoms per CG, excellent weak scaling from 12,000 up to 422,400
CGs; the largest system (54.067 T atoms) is two orders of magnitude beyond
OpenKMC's reach.

Real multi-rank runs at several rank counts verify that per-rank work stays
flat when the per-rank system is fixed (the actual weak-scaling property of
the implementation); the protocol model extrapolates to the paper's CG
counts.
"""

from __future__ import annotations

import numpy as np

from repro.io.report import ExperimentReport
from repro.lattice import LatticeState
from repro.parallel import (
    ScalingParameters,
    SublatticeKMC,
    parallel_efficiency,
    weak_scaling,
)
from benchmarks.bench_fig12_strong_scaling import calibrate, modeled_event_seconds

PAPER_CG_COUNTS = [12000, 24000, 48000, 96000, 192000, 384000, 422400]


def _events_per_rank(n_ranks, rank_cells, tet, potential, seed=11):
    """Fixed per-rank box, growing rank count: measured events per rank."""
    grid = (n_ranks, 1, 1)
    shape = (rank_cells * n_ranks, rank_cells, rank_cells)
    lattice = LatticeState(shape)
    lattice.randomize_alloy(np.random.default_rng(seed), 0.0134, 0.004)
    sim = SublatticeKMC(
        lattice, potential, tet, n_ranks=n_ranks, grid=grid,
        temperature=900.0, t_stop=2e-10, seed=seed,
    )
    sim.run(8)
    return sim.total_events / n_ranks


def test_fig13_weak_scaling(tet_small, nnp_tiny, experiment_reports, benchmark):
    # Real-weak-scaling check at laptop scale: per-rank event load is flat.
    per_rank = [
        _events_per_rank(n, 8, tet_small, nnp_tiny) for n in (1, 2, 3)
    ]
    mean = float(np.mean(per_rank))
    assert mean > 0
    assert max(abs(p - mean) for p in per_rank) < 0.8 * mean + 2.0

    _, bytes_per_cell = calibrate(tet_small, nnp_tiny)
    params = ScalingParameters(modeled_event_seconds(), bytes_per_cell)
    points = weak_scaling(params, atoms_per_cg=128e6, cg_counts=PAPER_CG_COUNTS)
    eff = parallel_efficiency(points, weak=True)

    report = ExperimentReport(
        "Fig. 13", "weak scaling, 128M atoms/CG (calibrated protocol model)"
    )
    for p, e in zip(points, eff):
        note = ""
        if p.n_cores == 27_456_000:
            note = "the 54.067T-atom headline run"
        report.add(
            f"{p.n_cores:,} cores",
            "(bar)",
            f"{p.atoms_total / 1e12:.3f}T atoms, cycle "
            f"{p.cycle_time * 1e3:.2f} ms, efficiency {e * 100:.1f}%",
            note,
        )
    report.add(
        "per-rank events at 1/2/3 ranks (real runs)",
        "flat",
        " / ".join(f"{p:.1f}" for p in per_rank),
    )
    experiment_reports(report)

    assert points[-1].atoms_total == 54.0672e12  # 422,400 * 128e6
    assert points[-1].n_cores == 27_456_000
    assert min(eff) > 0.9

    # Timed kernel: weak-scaling model evaluation across all CG counts.
    benchmark(
        lambda: weak_scaling(params, atoms_per_cg=128e6, cg_counts=PAPER_CG_COUNTS)
    )
