"""Fig. 11 — serial comparison: x86 vs SW vs SW(opt), both cutoffs.

Paper (per Sec. 4.3):

* feature: MPE-serial is ~5x slower than EPYC; the CPE fast feature operator
  is ~60x faster than MPE-serial (~14x vs EPYC);
* energy: SWDNN fused layers ~3x faster than EPYC; big-fusion cuts another
  ~80% (~15x vs EPYC);
* overall: SW(opt) ~11x faster than the x86 TensorFlow version and ~17x
  faster than the TensorFlow/SWDNN Sunway version.

The three platforms are charged to cost ledgers under the machine specs of
``repro.sunway.spec`` (x86 is ``EPYC_7452``) on the workload of one
vacancy-system evaluation (1 + 8 states) at both cutoffs; ordering and
magnitudes are asserted.  The timed kernel is what the program runs for that
workload: the evaluator's encode and NNP inference of one vacancy system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.constants import CU, FE, PAPER_CHANNELS, VACANCY
from repro.core.tet import TripleEncoding
from repro.core.vacancy_system import VacancySystemEvaluator
from repro.io.report import ExperimentReport
from repro.lattice import LatticeState
from repro.nnp import ElementNetworks, NNPotential
from repro.operators import (
    FEATURE_ENTRY_BYTES,
    FUSED_GEMM_EFF,
    TileGEMMKernel,
    charge_features,
    charge_layers,
    feature_ldm_budget,
)
from repro.potentials import FeatureTable
from repro.sunway import EPYC_7452, SW26010_PRO, CostLedger, SunwaySpec


@dataclass
class PlatformTimes:
    feature: float
    energy: float

    @property
    def total(self) -> float:
        return self.feature + self.energy


def _gather_time(spec: SunwaySpec, nbytes: float) -> float:
    """Modeled time of a serial gather loop reading ``nbytes`` scattered."""
    ledger = CostLedger(spec)
    ledger.add_random_access(nbytes)
    return ledger.memory_time


def _workload_times(rcut: float) -> Dict[str, PlatformTimes]:
    tet = TripleEncoding(rcut=rcut)
    table = FeatureTable(tet.shell_distances)
    n_states = 1 + tet.N_DIRECTIONS
    entries = n_states * tet.n_region * tet.n_local
    gather_bytes = entries * FEATURE_ENTRY_BYTES
    m = n_states * tet.n_region

    nets = ElementNetworks(PAPER_CHANNELS, np.random.default_rng(0))
    net = nets.nets[0]

    # --- x86 (EPYC + libtensorflow, Fig. 11 'x86') -----------------------
    x86_feature = _gather_time(EPYC_7452, gather_bytes)
    x86_energy = charge_layers(
        CostLedger(EPYC_7452), m, PAPER_CHANNELS,
        efficiency=EPYC_7452.gemm_efficiency,
    ).compute_time

    # --- SW (MPE feature + SWDNN fused per-layer energy) -----------------
    sw_feature = _gather_time(SW26010_PRO, gather_bytes)
    sw_energy = charge_layers(
        CostLedger(SW26010_PRO), m, PAPER_CHANNELS, fused=True,
        efficiency=FUSED_GEMM_EFF,
    ).serial_time()

    # --- SW(opt): fast feature operator + big-fusion ----------------------
    feature_ldm_budget(tet, table.n_dim)  # raises unless the tables fit LDM
    swopt_feature = charge_features(
        CostLedger(SW26010_PRO), tet, table.n_dim
    ).overlapped_time()
    swopt_energy = TileGEMMKernel(net.weights, net.biases).modeled_time(m)

    return {
        "x86": PlatformTimes(x86_feature, x86_energy),
        "SW": PlatformTimes(sw_feature, sw_energy),
        "SW(opt)": PlatformTimes(swopt_feature, swopt_energy),
    }


def test_fig11_serial_comparison(experiment_reports, benchmark):
    results = {rcut: _workload_times(rcut) for rcut in (6.5, 5.8)}
    t65 = results[6.5]

    report = ExperimentReport(
        "Fig. 11", "serial x86 vs SW vs SW(opt), per vacancy-system evaluation"
    )
    for rcut, times in results.items():
        for platform, pt in times.items():
            report.add(
                f"r_cut={rcut}  {platform}",
                "(bar chart)",
                f"feature {pt.feature * 1e3:.3f} ms, energy "
                f"{pt.energy * 1e3:.3f} ms, total {pt.total * 1e3:.3f} ms",
            )
    report.add(
        "feature: SW serial vs x86", "~5x slower",
        f"{t65['SW'].feature / t65['x86'].feature:.1f}x slower",
    )
    report.add(
        "feature: SW(opt) vs SW serial", "~60x faster",
        f"{t65['SW'].feature / t65['SW(opt)'].feature:.1f}x faster",
    )
    report.add(
        "feature: SW(opt) vs x86", "~14x faster",
        f"{t65['x86'].feature / t65['SW(opt)'].feature:.1f}x faster",
    )
    report.add(
        "energy: SW vs x86", "~3x faster",
        f"{t65['x86'].energy / t65['SW'].energy:.1f}x faster",
    )
    report.add(
        "energy: SW(opt) vs SW", "~80% reduction",
        f"{(1 - t65['SW(opt)'].energy / t65['SW'].energy) * 100:.0f}% reduction",
    )
    report.add(
        "overall: SW(opt) vs x86", "~11x faster",
        f"{t65['x86'].total / t65['SW(opt)'].total:.1f}x faster",
    )
    report.add(
        "overall: SW(opt) vs SW", "~17x faster",
        f"{t65['SW'].total / t65['SW(opt)'].total:.1f}x faster",
    )
    report.add(
        "shorter cutoff 5.8 A", "all bars shrink",
        f"SW(opt) total {results[5.8]['SW(opt)'].total * 1e3:.3f} ms vs "
        f"{t65['SW(opt)'].total * 1e3:.3f} ms",
    )
    experiment_reports(report)

    # Orderings and magnitudes of the paper.
    assert 3.0 < t65["SW"].feature / t65["x86"].feature < 7.0
    assert 40.0 < t65["SW"].feature / t65["SW(opt)"].feature < 80.0
    assert t65["x86"].energy > t65["SW"].energy > t65["SW(opt)"].energy
    assert 0.6 < 1 - t65["SW(opt)"].energy / t65["SW"].energy < 0.9
    assert t65["x86"].total / t65["SW(opt)"].total > 8.0
    assert t65["SW"].total / t65["SW(opt)"].total > 8.0
    # x86 beats unoptimised SW overall (the paper's 17x vs 11x ordering).
    assert t65["SW"].total > t65["x86"].total
    # shorter cutoff -> cheaper everywhere
    for platform in ("x86", "SW", "SW(opt)"):
        assert results[5.8][platform].total < results[6.5][platform].total

    # Timed kernel: the program's encode + inference of one vacancy system
    # at the standard cutoff (the evaluator the engines run, no row cache).
    tet = TripleEncoding(rcut=6.5)
    table = FeatureTable(tet.shell_distances)
    nets = ElementNetworks(PAPER_CHANNELS, np.random.default_rng(0))
    evaluator = VacancySystemEvaluator(tet, NNPotential(table, nets, rcut=6.5))
    lattice = LatticeState((10, 10, 10))
    rng = np.random.default_rng(5)
    lattice.occupancy[:] = np.where(rng.random(lattice.n_sites) < 0.1, CU, FE)
    vac = lattice.site_id(0, 5, 5, 5)
    lattice.occupancy[vac] = VACANCY
    vet = lattice.occupancy[lattice.neighbor_ids(vac, tet.all_offsets)]
    batch = benchmark(lambda: evaluator.evaluate_batch(vet[None]))
    assert batch.delta.shape == (1, tet.N_DIRECTIONS)
