"""Operator kernels: functional equivalence and the Fig. 10 ladder."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nnp import ElementNetworks
from repro.operators import (
    TileGEMMKernel,
    bias_add,
    conv1x1_loop,
    conv1x1_matmul,
    fig10_ladder,
    fused_layer,
    ladder_speedups,
    layered_forward,
    paper_bands,
    plan_tiles,
    relu,
)
from repro.sunway import SW26010_PRO, CostLedger


@pytest.fixture(scope="module")
def paper_net():
    nets = ElementNetworks((64, 128, 128, 128, 64, 1), np.random.default_rng(0))
    return nets.nets[0]


@pytest.fixture(scope="module")
def tiny_net():
    nets = ElementNetworks((6, 8, 1), np.random.default_rng(1))
    return nets.nets[0]


class TestConvEquivalence:
    @given(
        m=st.integers(min_value=1, max_value=6),
        c_in=st.integers(min_value=1, max_value=5),
        c_out=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_loop_equals_matmul(self, m, c_in, c_out, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, c_in)).astype(np.float32)
        w = rng.standard_normal((c_in, c_out)).astype(np.float32)
        assert np.allclose(conv1x1_loop(x, w), conv1x1_matmul(x, w), atol=1e-5)

    def test_channel_mismatch(self):
        with pytest.raises(ValueError):
            conv1x1_loop(np.zeros((2, 3)), np.zeros((4, 5)))

    def test_fused_equals_separate_passes(self, tiny_net):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 6)).astype(np.float32)
        w, b = tiny_net.weights[0], tiny_net.biases[0]
        separate = relu(bias_add(conv1x1_matmul(x, w), b))
        assert np.allclose(fused_layer(x, w, b), separate)

    def test_fused_last_layer_no_relu(self, tiny_net):
        x = -np.ones((4, 8), dtype=np.float32)
        w, b = tiny_net.weights[1], tiny_net.biases[1]
        out = fused_layer(x, w, b, last=True)
        assert np.allclose(out, x @ w + b)

    @given(
        m=st.integers(min_value=1, max_value=8),
        k=st.integers(min_value=1, max_value=8),
        n=st.integers(min_value=1, max_value=8),
        last=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_fused_layer_matches_plain_numpy(self, m, k, n, last, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((m, k)).astype(np.float32)
        w = rng.standard_normal((k, n)).astype(np.float32)
        b = rng.standard_normal(n).astype(np.float32)
        got = fused_layer(x.copy(), w, b, last=last)
        ref = np.matmul(x, w) + b
        if not last:
            ref = np.maximum(ref, 0.0)
        np.testing.assert_array_equal(got, ref)


class TestLayeredForward:
    def test_matches_network_forward(self, paper_net):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 64)).astype(np.float32)
        out = layered_forward(x, paper_net.weights, paper_net.biases)
        assert np.allclose(out[:, 0], paper_net.forward(x), atol=1e-5)

    def test_fused_equals_unfused(self, paper_net):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((20, 64)).astype(np.float32)
        fused = layered_forward(x, paper_net.weights, paper_net.biases, fused=True)
        unfused = layered_forward(x, paper_net.weights, paper_net.biases, fused=False)
        assert np.allclose(fused, unfused, atol=1e-6)

    def test_ledger_charges_per_layer_traffic(self, paper_net):
        ledger = CostLedger(SW26010_PRO)
        x = np.zeros((100, 64), dtype=np.float32)
        layered_forward(
            x, paper_net.weights, paper_net.biases, ledger=ledger,
        )
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

    def test_all_variants_functionally_equal(self, paper_net):
        ladder = fig10_ladder(paper_net.weights, paper_net.biases, 256)
        x = np.random.default_rng(8).standard_normal((256, 64)).astype(np.float32)
        outputs = [v.run(x) for v in ladder]
        for out in outputs[1:]:
            assert np.allclose(out, outputs[0], atol=1e-5)
