"""Atomistic network: forward semantics, backprop gradients, input gradient."""

import numpy as np
import pytest

from repro.nnp.network import AtomicNetwork, ElementNetworks


@pytest.fixture()
def net():
    return AtomicNetwork((6, 8, 5, 1), np.random.default_rng(0), dtype=np.float64)


class TestForward:
    def test_output_shape(self, net):
        x = np.random.default_rng(1).standard_normal((7, 6))
        assert net.forward(x).shape == (7,)

    def test_relu_not_applied_to_output(self):
        """Outputs can be negative (no ReLU on the last layer)."""
        rng = np.random.default_rng(2)
        net = AtomicNetwork((4, 8, 1), rng)
        x = rng.standard_normal((200, 4)).astype(np.float32)
        assert net.forward(x).min() < 0

    def test_forward_cached_matches_forward(self, net):
        x = np.random.default_rng(3).standard_normal((5, 6))
        out, cache = net.forward_cached(x)
        assert np.allclose(out, net.forward(x))
        assert len(cache) == net.n_layers + 1

    def test_invalid_channels(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            AtomicNetwork((4,), rng)
        with pytest.raises(ValueError):
            AtomicNetwork((4, 8, 2), rng)  # output must be 1

    def test_n_parameters(self, net):
        expected = 6 * 8 + 8 + 8 * 5 + 5 + 5 * 1 + 1
        assert net.n_parameters == expected


class TestBackward:
    def test_weight_gradients_match_fd(self, net):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((9, 6))
        target = rng.standard_normal(9)

        def loss():
            return 0.5 * np.sum((net.forward(x) - target) ** 2)

        out, cache = net.forward_cached(x)
        gw, gb, _ = net.backward(out - target, cache)
        h = 1e-6
        for layer in range(net.n_layers):
            w = net.weights[layer]
            for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                w[idx] += h
                up = loss()
                w[idx] -= 2 * h
                down = loss()
                w[idx] += h
                assert (up - down) / (2 * h) == pytest.approx(
                    gw[layer][idx], rel=1e-4, abs=1e-6
                )
            b = net.biases[layer]
            b[0] += h
            up = loss()
            b[0] -= 2 * h
            down = loss()
            b[0] += h
            assert (up - down) / (2 * h) == pytest.approx(
                gb[layer][0], rel=1e-4, abs=1e-6
            )

    def test_input_gradient_matches_fd(self, net):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 6))
        grad = net.input_gradient(x)
        h = 1e-6
        for i in (0, 3):
            for c in (0, 5):
                xp, xm = x.copy(), x.copy()
                xp[i, c] += h
                xm[i, c] -= h
                fd = (net.forward(xp)[i] - net.forward(xm)[i]) / (2 * h)
                assert fd == pytest.approx(grad[i, c], rel=1e-4, abs=1e-7)

    def test_backward_grad_input_consistent(self, net):
        """grad_input from backward(ones) equals input_gradient."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal((5, 6))
        _, cache = net.forward_cached(x)
        _, _, grad_in = net.backward(np.ones(5), cache)
        assert np.allclose(grad_in, net.input_gradient(x), atol=1e-12)


class TestParameterIO:
    def test_roundtrip(self, net):
        params = [p.copy() for p in net.get_parameters()]
        for p in net.get_parameters():
            p += 1.0
        net.set_parameters(params)
        for a, b in zip(net.get_parameters(), params):
            assert np.array_equal(a, b)

    def test_length_checked(self, net):
        with pytest.raises(ValueError):
            net.set_parameters([np.zeros(1)])


class TestElementNetworks:
    def test_routing_by_species(self):
        rng = np.random.default_rng(7)
        nets = ElementNetworks((4, 6, 1), rng, dtype=np.float64)
        x = rng.standard_normal((10, 4))
        species = np.array([0, 1] * 5)
        out = nets.forward(x, species)
        for e in (0, 1):
            mask = species == e
            assert np.allclose(out[mask], nets.nets[e].forward(x[mask]))

    def test_input_gradient_routing(self):
        rng = np.random.default_rng(8)
        nets = ElementNetworks((4, 6, 1), rng, dtype=np.float64)
        x = rng.standard_normal((6, 4))
        species = np.array([0, 0, 1, 1, 0, 1])
        grads = nets.input_gradient(x, species)
        for e in (0, 1):
            mask = species == e
            assert np.allclose(grads[mask], nets.nets[e].input_gradient(x[mask]))

    def test_distinct_networks_per_element(self):
        nets = ElementNetworks((4, 6, 1), np.random.default_rng(9))
        x = np.random.default_rng(10).standard_normal((3, 4)).astype(np.float32)
        out_fe = nets.nets[0].forward(x)
        out_cu = nets.nets[1].forward(x)
        assert not np.allclose(out_fe, out_cu)


class TestForwardBigFusion:
    def test_matches_plain_forward(self):
        rng = np.random.default_rng(12)
        nets = ElementNetworks((8, 16, 1), rng)
        x = rng.standard_normal((40, 8)).astype(np.float32)
        species = rng.integers(0, 2, size=40)
        fused = nets.forward(x, species)
        for e in (0, 1):
            mask = species == e
            assert np.allclose(fused[mask], nets.nets[e].forward(x[mask]), atol=1e-6)

    def test_charges_ledger_and_caches_fusers(self):
        from repro.sunway import SW26010_PRO, CostLedger

        rng = np.random.default_rng(13)
        nets = ElementNetworks((8, 16, 1), rng)
        x = rng.standard_normal((20, 8)).astype(np.float32)
        species = rng.integers(0, 2, size=20)
        ledger = CostLedger(SW26010_PRO)
        nets.forward(x, species, ledger=ledger)
        assert ledger.simd_flops > 0
        assert ledger.dma_bytes > 0
        assert ledger.rma_bytes > 0
        assert len(nets._fusers) == 2  # one cached operator per element
        nets.forward(x, species)
        assert len(nets._fusers) == 2

    def test_tracks_in_place_weight_updates(self):
        rng = np.random.default_rng(14)
        nets = ElementNetworks((8, 16, 1), rng)
        x = rng.standard_normal((10, 8)).astype(np.float32)
        species = np.zeros(10, dtype=np.int64)
        before = nets.forward(x, species).copy()
        net = nets.nets[0]
        net.set_parameters([p * 0.5 for p in net.get_parameters()])
        after = nets.forward(x, species)
        assert not np.allclose(before, after)
        assert np.allclose(after, net.forward(x), atol=1e-6)
