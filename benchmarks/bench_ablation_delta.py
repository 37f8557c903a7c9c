"""Ablation — full 9-state feature encode vs the engines' patched encode.

The paper's fast feature operator encodes all 1 + N_f trial states of a
vacancy system (Sec. 3.4) — on the CPE cluster that batch shape is what
saturates the SIMD pipes.  The engines' miss pipeline
(``evaluate_rows``, reached here through ``evaluate_batch`` on one VET)
encodes only state 0 and patches the eight swap states' shell counts from a
table.  This bench times the two encodes of one VET against each other and
verifies that they agree bit for bit.
"""

from __future__ import annotations

import time

import numpy as np

from repro.constants import CU, FE, VACANCY
from repro.core.tet import TripleEncoding
from repro.core.vacancy_system import VacancySystemEvaluator
from repro.io.report import ExperimentReport
from repro.lattice import LatticeState
from repro.potentials import EAMPotential


def _setup(rcut):
    tet = TripleEncoding(rcut=rcut)
    potential = EAMPotential(tet.shell_distances)
    evaluator = VacancySystemEvaluator(tet, potential)
    lattice = LatticeState((10, 10, 10))
    rng = np.random.default_rng(5)
    lattice.occupancy[:] = np.where(rng.random(lattice.n_sites) < 0.1, CU, FE)
    vac = lattice.site_id(0, 5, 5, 5)
    lattice.occupancy[vac] = VACANCY
    vet = lattice.occupancy[lattice.neighbor_ids(vac, tet.all_offsets)]
    return evaluator, vet


def _best(fn, n=15):
    """Best single-call wall time of ``n`` calls."""
    best = float("inf")
    for _ in range(n):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_ablation_delta_evaluation(experiment_reports, benchmark):
    report = ExperimentReport(
        "Ablation: patched encode",
        "full 9-state encode vs state-0 encode + swap-state patch",
    )
    for rcut in (2.87, 6.5):
        evaluator, vet = _setup(rcut)
        full = evaluator.evaluate(vet)
        patched = evaluator.evaluate_batch(vet[None]).row(0)
        assert patched.initial == full.initial
        assert np.array_equal(patched.delta, full.delta)
        assert np.array_equal(patched.valid, full.valid)
        t_full = _best(lambda: evaluator.evaluate(vet))
        t_patched = _best(lambda: evaluator.evaluate_batch(vet[None]))
        report.add(
            f"r_cut = {rcut} A",
            "bit-identical energetics required",
            f"bit-identical; full {t_full * 1e3:.2f} ms vs patched "
            f"{t_patched * 1e3:.2f} ms ({t_full / t_patched:.1f}x)",
        )
        if rcut > 3.0:
            # The patched encode must win where the paper's workload lives.
            assert t_patched < t_full
    experiment_reports(report)

    evaluator, vet = _setup(6.5)
    benchmark(lambda: evaluator.evaluate_batch(vet[None]))
