"""Golden values of the modeled operator figures (Figs. 9 and 11, Sec. 3.6).

The machine model is analytic: every number here is a pure function of the
paper network, the batch size and the machine specs, so the literals are
exact.  The first tests pin the ledger values the figures are built from;
the report tests run the benches' own code with stub fixtures and pin
every modeled row they print, so a refactor of the cost accounting cannot
move a reported figure silently.
"""

import numpy as np
import pytest

from benchmarks import (
    bench_fig09_roofline,
    bench_fig11_serial,
    bench_fig12_strong_scaling,
    bench_fig13_weak_scaling,
    bench_portability,
)
from repro.constants import PAPER_CHANNELS
from repro.nnp import ElementNetworks
from repro.operators import TileGEMMKernel, charge_layers
from repro.parallel import ScalingParameters, strong_scaling, weak_scaling
from repro.sunway import FUGAKU_CMG, SW26010_PRO, CostLedger

#: The Fig. 9 / Sec. 3.6 batch (N, H, W = 32, 16, 16).
M = 32 * 16 * 16

LAYERS = list(zip(PAPER_CHANNELS[:-1], PAPER_CHANNELS[1:]))


@pytest.fixture(scope="module")
def paper_net():
    return ElementNetworks(PAPER_CHANNELS, np.random.default_rng(0)).nets[0]


def _measured_rows(bench) -> dict:
    """Run one bench function; return its report as ``{quantity: measured}``."""
    reports = []
    bench(experiment_reports=reports.append, benchmark=lambda fn: fn())
    (report,) = reports
    return {row.quantity: row.measured for row in report.rows}


class TestFig9:
    def test_per_layer_ledgers(self):
        ledgers = [charge_layers(CostLedger(SW26010_PRO), M, pair) for pair in LAYERS]
        assert [l.arithmetic_intensity for l in ledgers] == [
            21.55265927305108,
            31.998062132865016,
            31.998062132865016,
            21.387735276259868,
            0.4999389722934212,
        ]
        assert [l.total_bytes for l in ledgers] == [
            6324736, 8454656, 8454656, 6324480, 2130180,
        ]
        assert sum(l.total_bytes for l in ledgers) == 31688708

    def test_fused_ledger(self, paper_net):
        ledger = CostLedger(SW26010_PRO)
        TileGEMMKernel(paper_net.weights, paper_net.biases).charge(ledger, M)
        assert ledger.total_bytes == 2129920
        assert ledger.arithmetic_intensity == 382.03846153846155

    def test_report_rows(self):
        assert _measured_rows(bench_fig09_roofline.test_fig09_roofline) == {
            "machine ridge point": "43.62 F/B",
            "per-layer AI (original)": "0.50 - 32.00",
            "original traffic": "31.7 MB",
            "fused traffic": "2.13 MB",
            "fused AI": "382.0 F/B",
            "original bound": "memory",
            "big-fusion bound": "compute",
            "big-fusion peak fraction": "76.64%",
        }


class TestSec36:
    def test_ridge_points(self):
        assert SW26010_PRO.ridge_point == 43.625
        assert FUGAKU_CMG.ridge_point == 6.6015625

    def test_fugaku_machine_constants(self):
        assert FUGAKU_CMG.peak_flops_sp == 1.69e12
        assert FUGAKU_CMG.gemm_efficiency == 0.70
        assert FUGAKU_CMG.mem_bandwidth == 256.0e9

    def test_sunway_modeled_time(self, paper_net):
        kernel = TileGEMMKernel(paper_net.weights, paper_net.biases)
        assert kernel.modeled_time(M) == 0.0004753456042016857

    def test_report_rows(self):
        assert _measured_rows(bench_portability.test_portability_mapping) == {
            "SW26010-pro CG": "AI 382 F/B vs ridge 43.6 -> compute-bound, 0.475 ms",
            "Fugaku A64FX CMG": "AI 382 F/B vs ridge 6.6 -> compute-bound, 0.688 ms",
            "parameter-sharing fabric": "RMA 400 GB/s vs L2 900 GB/s",
            "main-memory traffic": "2.13 MB on both",
        }


class TestFig11:
    @pytest.mark.parametrize(
        "rcut, feature, energy",
        [
            (6.5, 0.000453376, 0.0019331146153846153),
            (5.8, 0.000173056, 0.00129129),
        ],
    )
    def test_x86_times(self, rcut, feature, energy):
        x86 = bench_fig11_serial._workload_times(rcut)["x86"]
        assert x86.feature == feature
        assert x86.energy == energy

    def test_report_rows(self):
        assert _measured_rows(bench_fig11_serial.test_fig11_serial_comparison) == {
            "r_cut=6.5  x86": "feature 0.453 ms, energy 1.933 ms, total 2.386 ms",
            "r_cut=6.5  SW": "feature 2.040 ms, energy 0.456 ms, total 2.496 ms",
            "r_cut=6.5  SW(opt)": "feature 0.048 ms, energy 0.132 ms, total 0.180 ms",
            "r_cut=5.8  x86": "feature 0.173 ms, energy 1.291 ms, total 1.464 ms",
            "r_cut=5.8  SW": "feature 0.779 ms, energy 0.311 ms, total 1.090 ms",
            "r_cut=5.8  SW(opt)": "feature 0.023 ms, energy 0.088 ms, total 0.111 ms",
            "feature: SW serial vs x86": "4.5x slower",
            "feature: SW(opt) vs SW serial": "42.9x faster",
            "feature: SW(opt) vs x86": "9.5x faster",
            "energy: SW vs x86": "4.2x faster",
            "energy: SW(opt) vs SW": "71% reduction",
            "overall: SW(opt) vs x86": "13.3x faster",
            "overall: SW(opt) vs SW": "13.9x faster",
            "shorter cutoff 5.8 A": "SW(opt) total 0.111 ms vs 0.180 ms",
        }


class TestFigs12And13Terms:
    """The cycle terms the scaling figures share, pinned before the compute
    term was derived: communication, synchronisation, core counts and the
    per-CG system size do not depend on how events are counted."""

    STRONG = [
        (5.896238325041916e-05, 5.420298714153297e-05, 780_000, 160e6),
        (5.638602660731929e-05, 5.820298714153297e-05, 1_560_000, 80e6),
        (5.4763023623980285e-05, 6.220298714153297e-05, 3_120_000, 40e6),
        (5.374059581260479e-05, 6.620298714153297e-05, 6_240_000, 20e6),
        (5.309650665182982e-05, 7.020298714153297e-05, 12_480_000, 10e6),
        (5.269075590599507e-05, 7.420298714153296e-05, 24_960_000, 5e6),
    ]
    WEAK_SYNC = [
        5.420298714153297e-05, 5.820298714153297e-05, 6.220298714153297e-05,
        6.620298714153297e-05, 7.020298714153297e-05, 7.420298714153296e-05,
        7.475300123653271e-05,
    ]

    @staticmethod
    def _terms(points):
        return [(p.cycle_comm, p.cycle_sync, p.n_cores, p.atoms_per_cg) for p in points]

    def test_strong_terms(self):
        params = ScalingParameters(1.8e-4, 0.05)
        points = strong_scaling(
            params, 1.92e12, bench_fig12_strong_scaling.PAPER_CG_COUNTS
        )
        assert self._terms(points) == [pytest.approx(t, rel=1e-12) for t in self.STRONG]

    def test_weak_terms(self):
        params = ScalingParameters(1.8e-4, 0.05)
        counts = bench_fig13_weak_scaling.PAPER_CG_COUNTS
        points = weak_scaling(params, 128e6, counts)
        assert self._terms(points) == [
            pytest.approx((5.8e-05, sync, 65 * n, 128e6), rel=1e-12)
            for sync, n in zip(self.WEAK_SYNC, counts)
        ]
