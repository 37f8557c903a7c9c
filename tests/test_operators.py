"""Operator kernels: the big-fusion kernel and the Fig. 10 ladder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nnp import ElementNetworks
from repro.operators import (
    TileGEMMKernel,
    charge_layers,
    fig10_ladder,
    ladder_speedups,
    paper_bands,
    plan_tiles,
)
from repro.sunway import SW26010_PRO, CostLedger


@pytest.fixture(scope="module")
def paper_net():
    nets = ElementNetworks((64, 128, 128, 128, 64, 1), np.random.default_rng(0))
    return nets.nets[0]


class TestConvEquivalence:
    """The kernel's fused 1x1-conv layers are the plain NumPy layer math."""

    @given(
        m=st.integers(min_value=1, max_value=20),
        widths=st.lists(
            st.integers(min_value=1, max_value=40), min_size=2, max_size=4
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_fused_layer_matches_plain_numpy(self, m, widths, seed):
        rng = np.random.default_rng(seed)
        pairs = list(zip(widths[:-1], widths[1:]))
        weights = [rng.standard_normal(p).astype(np.float32) for p in pairs]
        biases = [rng.standard_normal(n).astype(np.float32) for _, n in pairs]
        x = rng.standard_normal((m, widths[0])).astype(np.float32)
        ref = x.astype(np.float64)
        for l, (w, b) in enumerate(zip(weights, biases)):
            ref = ref @ w + b  # GEMM, then the bias pass
            if l < len(weights) - 1:
                ref = np.maximum(ref, 0.0)  # ReLU on every layer but the last
        got = TileGEMMKernel(weights, biases)(x)
        scale = max(1.0, float(np.abs(ref).max()))
        np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-5 * scale)


class TestLayeredForward:
    def test_ledger_charges_per_layer_traffic(self, paper_net):
        channels = [paper_net.weights[0].shape[0]] + [
            w.shape[1] for w in paper_net.weights
        ]
        ledger = charge_layers(CostLedger(SW26010_PRO), 100, channels)
        # every intermediate makes a round trip: traffic well above in+out.
        minimal = 4 * 100 * (64 + 1)
        assert ledger.dma_bytes > 5 * minimal
        assert ledger.simd_flops > 0


class TestBigFusion:
    """The big-fusion operator is the NNP inference kernel."""

    def test_matches_direct_forward(self, paper_net):
        rng = np.random.default_rng(5)
        op = TileGEMMKernel(paper_net.weights, paper_net.biases)
        # below / at / above one block iteration (n_cpes * m_tile = 8192 rows)
        for m in (1, 64, 1000, 9000):
            x = rng.standard_normal((m, 64)).astype(np.float32)
            assert np.allclose(op(x)[:, 0], paper_net.forward(x), atol=1e-5)

    def test_traffic_is_first_in_plus_last_out(self, paper_net):
        op = TileGEMMKernel(paper_net.weights, paper_net.biases)
        ledger = CostLedger(SW26010_PRO)
        m = 512
        op(np.zeros((m, 64), dtype=np.float32), ledger=ledger)
        assert ledger.dma_bytes == pytest.approx(4 * m * (64 + 1))
        assert ledger.rma_bytes > 0

    def test_m_block_fits_ldm(self, paper_net):
        weights, biases = paper_net.weights, paper_net.biases
        plan = plan_tiles(weights, biases)
        spec = SW26010_PRO
        param_bytes = sum(w.nbytes + b.nbytes for w, b in zip(weights, biases))
        per_cpe = (
            2 * plan.m_tile * max(plan.channels) * 4
            + int(np.ceil(param_bytes / spec.n_cpes))
            + max(w.nbytes + b.nbytes for w, b in zip(weights, biases))
        )
        assert per_cpe <= spec.ldm_bytes


class TestFig10Ladder:
    #: Each rung's ``(modeled_time, ledger.total_bytes)`` at M = 8192.
    PINNED = {
        "base": (0.06396243701429521, 90540036.0),
        "matmul": (0.051477094952102086, 90540036.0),
        "simd": (0.0030177096483255733, 90540036.0),
        "fusion": (0.0015926171072307156, 31688708.0),
        "bigfusion": (0.0004753456042016857, 2129920.0),
    }

    def test_pinned_rungs(self, paper_net):
        ladder = fig10_ladder(paper_net.weights, paper_net.biases, 32 * 16 * 16)
        got = {v.name: (v.modeled_time, v.ledger.total_bytes) for v in ladder}
        assert got == self.PINNED

    def test_speedups_within_paper_bands(self, paper_net):
        ladder = fig10_ladder(paper_net.weights, paper_net.biases, 32 * 16 * 16)
        speedups = ladder_speedups(ladder)
        for name, (lo, hi) in paper_bands().items():
            assert lo * 0.9 <= speedups[name] <= hi * 1.1, (
                f"{name}: {speedups[name]:.1f}x outside paper band ({lo}, {hi})"
            )

    def test_ladder_monotone(self, paper_net):
        ladder = fig10_ladder(paper_net.weights, paper_net.biases, 4096)
        times = [v.modeled_time for v in ladder]
        assert all(b < a for a, b in zip(times, times[1:]))

    def test_every_rung_time_is_its_ledger_time(self, paper_net):
        ladder = fig10_ladder(paper_net.weights, paper_net.biases, 32 * 16 * 16)
        for v in ladder[:-1]:
            assert v.modeled_time == v.ledger.serial_time(), v.name
        top = ladder[-1]
        assert top.name == "bigfusion"
        assert top.modeled_time == top.ledger.overlapped_time()
        # Every rung runs the same arithmetic.
        flops = {v.ledger.total_flops for v in ladder}
        assert len(flops) == 1 and flops.pop() > 0
