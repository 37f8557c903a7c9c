"""Sunway machine model: spec invariants, cost ledger, roofline (Fig. 9)."""

import numpy as np
import pytest

from repro.constants import PAPER_CHANNELS
from repro.nnp import ElementNetworks
from repro.operators import TileGEMMKernel, charge_layers
from repro.sunway import EPYC_7452, SW26010_PRO, CostLedger

M = 32 * 16 * 16


class TestSpec:
    def test_ridge_point_matches_paper(self):
        """The paper's roofline quotes a 43.63 FLOPs/Byte balance point."""
        assert SW26010_PRO.ridge_point == pytest.approx(43.63, rel=0.01)

    def test_cpe_cluster_shape(self):
        assert SW26010_PRO.n_cpes == 64
        assert SW26010_PRO.ldm_bytes == 256 * 1024

    def test_peak_aggregates_cpes(self):
        assert SW26010_PRO.peak_flops_sp == pytest.approx(
            64 * SW26010_PRO.cpe_peak_flops
        )

    def test_x86_is_gather_friendlier(self):
        assert EPYC_7452.mpe_random_bandwidth > SW26010_PRO.mpe_random_bandwidth


class TestCostLedger:
    def test_compute_time_simd(self):
        ledger = CostLedger(SW26010_PRO)
        ledger.add_simd(SW26010_PRO.peak_flops_sp)  # one second at peak
        ledger.simd_efficiency = 1.0
        assert ledger.compute_time == pytest.approx(1.0)

    def test_efficiency_scales_time(self):
        ledger = CostLedger(SW26010_PRO)
        ledger.add_simd(1e12)
        ledger.simd_efficiency = 0.5
        assert ledger.compute_time == pytest.approx(
            2e12 / SW26010_PRO.peak_flops_sp
        )

    def test_memory_time_includes_latency(self):
        ledger = CostLedger(SW26010_PRO)
        ledger.add_dma(SW26010_PRO.mem_bandwidth, transactions=3)
        expected = 1.0 + 3 * SW26010_PRO.dma_latency
        assert ledger.memory_time == pytest.approx(expected)

    def test_overlap_vs_serial(self):
        ledger = CostLedger(SW26010_PRO)
        ledger.add_simd(1e9)
        ledger.add_dma(1e8)
        assert ledger.overlapped_time() == pytest.approx(
            max(ledger.compute_time, ledger.memory_time)
        )
        assert ledger.serial_time() == pytest.approx(
            ledger.compute_time + ledger.memory_time
        )

    def test_arithmetic_intensity(self):
        ledger = CostLedger(SW26010_PRO)
        ledger.add_simd(100.0)
        ledger.add_dma(50.0)
        assert ledger.arithmetic_intensity == pytest.approx(2.0)


class TestRooflineFig9:
    """Fig. 9 reads one ``charge_layers`` ledger per layer (original) and
    the big-fusion kernel's ledger (fused)."""

    @pytest.fixture(scope="class")
    def layers(self):
        return [
            charge_layers(CostLedger(SW26010_PRO), M, pair)
            for pair in zip(PAPER_CHANNELS[:-1], PAPER_CHANNELS[1:])
        ]

    @pytest.fixture(scope="class")
    def fused(self):
        net = ElementNetworks(PAPER_CHANNELS, np.random.default_rng(0)).nets[0]
        ledger = CostLedger(SW26010_PRO)
        TileGEMMKernel(net.weights, net.biases).charge(ledger, M)
        return ledger

    def test_layer_flops(self):
        ledger = charge_layers(CostLedger(SW26010_PRO), 10, (4, 8))
        assert ledger.total_flops == 2 * 10 * 4 * 8 + 2 * 10 * 8

    def test_per_layer_ai_spans_paper_range(self, layers):
        """Paper: per-layer AI from 0.48 to 21.3 — all below the ridge."""
        ais = [l.arithmetic_intensity for l in layers]
        assert min(ais) == pytest.approx(0.5, abs=0.1)  # paper 0.48
        assert max(ais) < SW26010_PRO.ridge_point

    def test_original_is_memory_bound(self, layers):
        assert min(l.arithmetic_intensity for l in layers) < SW26010_PRO.ridge_point

    def test_fused_is_compute_bound(self, fused):
        """Paper: big-fusion AI ~509 >> ridge 43.6 -> compute bound."""
        assert fused.arithmetic_intensity > SW26010_PRO.ridge_point
        assert fused.arithmetic_intensity > 300.0

    def test_traffic_reduction(self, layers, fused):
        """Paper: 56 MB -> 2 MB; ours: ~32 MB -> ~2.1 MB (fewer passes
        counted), a >10x reduction either way."""
        original = sum(l.total_bytes for l in layers)
        assert fused.total_bytes == pytest.approx(2.13e6, rel=0.05)
        assert original / fused.total_bytes > 10.0
