"""The deterministic tiled-GEMM kernel: correctness + batch invariance.

The property under test is the whole reason :mod:`repro.operators.tilegemm`
exists: every output row must be a pure function of that row's input —
bit-identical whether the row is computed alone, inside any batch split, or
at any position after a shuffle.  Plain float32 BLAS GEMMs do *not* have
this property (their blocking follows the row count); the fixed-tile
padded tiling must restore it exactly.

The kernel pads a launch's last, partial row block only to a multiple of
``MIN_TILE`` (8) rows, so it rests on a measured premise: a row's bits do
not depend on how many 8-row groups share its GEMM call.
:class:`TestRowPaddingPremise` pins that premise on the bare BLAS and its
consequence on the paper's 64-128-128-128-64-1 network; padding to exactly
the row count fails the network sweep.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nnp.network import AtomicNetwork, ElementNetworks
from repro.operators.tilegemm import MAX_M_TILE, MIN_TILE, TileGEMMKernel, plan_tiles
from repro.sunway.costmodel import CostLedger
from repro.sunway.ldm import LDMOverflowError
from repro.sunway.spec import SW26010_PRO

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev env
    HAVE_HYPOTHESIS = False


def _net(channels=(64, 16, 8, 1), seed=0, dtype=np.float32):
    return AtomicNetwork(channels, np.random.default_rng(seed), dtype=dtype)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestFuzzBatchSplitInvariance:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        m=st.integers(min_value=1, max_value=600),
        split=st.integers(min_value=1, max_value=300),
        hidden=st.sampled_from([(16, 8), (20, 7), (33,)]),
    )
    def test_every_split_gives_identical_rows(self, seed, m, split, hidden):
        """B=split and B=m agree bitwise per row, across row tiles and with
        partial reduction panels."""
        rng = np.random.default_rng(seed)
        kernel = TileGEMMKernel(*_weights_biases(_net((48, *hidden, 1), seed=seed)))
        x = (rng.standard_normal((m, 48)) * 10).astype(np.float32)
        full = kernel(x)
        pieces = [kernel(x[lo : lo + split]) for lo in range(0, m, split)]
        assert np.array_equal(np.concatenate(pieces), full)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        m=st.integers(min_value=1, max_value=70),
    )
    def test_kernel_network_rows_batch_invariant(self, seed, m):
        """The whole fused network, not just one GEMM, is row-invariant."""
        rng = np.random.default_rng(seed)
        kernel = TileGEMMKernel(*_weights_biases(_net(seed=7)))
        x = rng.standard_normal((m, 64)).astype(np.float32)
        full = kernel(x)
        ones = np.concatenate([kernel(x[i : i + 1]) for i in range(m)])
        assert np.array_equal(ones, full)
        perm = rng.permutation(m)
        assert np.array_equal(kernel(x[perm]), full[perm])


def _weights_biases(net):
    return net.weights, net.biases


class TestTileGEMMKernel:
    def test_matches_blas_forward_to_tolerance(self):
        net = _net(seed=5)
        kernel = TileGEMMKernel(net.weights, net.biases)
        x = np.random.default_rng(5).standard_normal((200, 64)).astype(np.float32)
        np.testing.assert_allclose(
            kernel(x)[:, 0], net.forward(x), rtol=1e-4, atol=1e-5
        )

    def test_float64_supported(self):
        net = _net(seed=2, dtype=np.float64)
        kernel = TileGEMMKernel(net.weights, net.biases)
        x = np.random.default_rng(2).standard_normal((21, 64))
        out = kernel(x)
        assert out.dtype == np.float64
        np.testing.assert_allclose(out[:, 0], net.forward(x), rtol=1e-12)

    def test_aliases_live_weights(self):
        """In-place weight updates (training) flow into the kernel."""
        net = _net(seed=6)
        kernel = TileGEMMKernel(net.weights, net.biases)
        x = np.random.default_rng(6).standard_normal((9, 64)).astype(np.float32)
        before = kernel(x).copy()
        params = [p.copy() for p in net.get_parameters()]
        params[0] += 0.25
        net.set_parameters(params)
        after = kernel(x)
        assert not np.array_equal(before, after)
        np.testing.assert_allclose(after[:, 0], net.forward(x), rtol=1e-4, atol=1e-5)

    def test_rejects_wrong_feature_width(self):
        kernel = TileGEMMKernel(*_weights_biases(_net(seed=8)))
        with pytest.raises(ValueError, match="features"):
            kernel(np.zeros((4, 63), dtype=np.float32))

    def test_charges_ledger(self):
        kernel = TileGEMMKernel(*_weights_biases(_net(seed=9)))
        ledger = CostLedger(SW26010_PRO)
        kernel(np.zeros((700, 64), dtype=np.float32), ledger=ledger)
        assert ledger.simd_flops > 0
        assert ledger.dma_bytes > 0
        assert ledger.rma_bytes > 0
        assert ledger.notes["m_tile"] == kernel.plan.m_tile
        assert ledger.notes["n_blocks"] >= 1
        assert kernel.modeled_time(700) > 0.0

    def test_paper_network_ledger_follows_algorithm_1(self):
        """One block iteration runs ``n_cpes`` state blocks of ``m_tile`` rows."""
        kernel = TileGEMMKernel(*_weights_biases(_net((64, 128, 128, 128, 64, 1))))
        assert SW26010_PRO.n_cpes * kernel.plan.m_tile == 8192
        ledger = CostLedger(SW26010_PRO)
        m = 8192
        kernel.charge(ledger, m)
        assert ledger.notes["n_blocks"] == 1.0
        assert ledger.rma_bytes == 1_589_280
        assert ledger.rma_transactions == 5
        assert ledger.dma_transactions == 2
        assert ledger.dma_bytes == 2_129_920 == 4 * m * (64 + 1)
        assert round(kernel.modeled_time(m) * 1e3, 4) == 0.4753  # ms

    def test_element_networks_forward_equals_big_fusion_bitwise(self):
        """``ElementNetworks.forward`` is the per-element big-fusion kernel,
        bit for bit, and agrees with the plain per-element matmul forward."""
        nets = ElementNetworks((64, 16, 8, 1), np.random.default_rng(3), n_elements=2)
        rng = np.random.default_rng(4)
        feats = rng.standard_normal((333, 64)).astype(np.float32)
        species = rng.integers(0, 2, 333)
        out = nets.forward(feats, species)
        for e, net in nets.nets.items():
            mask = species == e
            kernel = TileGEMMKernel(net.weights, net.biases)
            assert np.array_equal(out[mask], kernel(feats[mask])[:, 0])
            np.testing.assert_allclose(
                out[mask], net.forward(feats[mask]), rtol=1e-4, atol=1e-5
            )


PAPER_CHANNELS = (64, 128, 128, 128, 64, 1)


def _paper_kernel(dtype):
    """The paper's 64-128-128-128-64-1 network on its real plan, with
    non-zero biases so every ReLU layer carries mixed-sign rows."""
    rng = np.random.default_rng(11)
    net = _net(PAPER_CHANNELS, seed=11, dtype=dtype)
    for b in net.biases:
        b[:] = rng.standard_normal(b.shape).astype(dtype) * 0.5
    return TileGEMMKernel(net.weights, net.biases, dtype=dtype)


def _blas_name() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{blas['name']} {blas['version']} ({blas.get('openblas configuration')})"


class TestRowPaddingPremise:
    """The premise behind padding a partial row block only to a multiple of
    ``MIN_TILE``: a row's bits do not depend on how many 8-row groups share
    its GEMM call.  Pinned on the paper network's real plan."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_batch_size_matches_one_large_call(self, dtype):
        kernel = _paper_kernel(dtype)
        mt = kernel.plan.m_tile
        assert (mt, kernel.plan.k_tile) == (128, 128)
        rng = np.random.default_rng(12)
        x = (rng.standard_normal((3 * mt + 5, 64)) * 3).astype(dtype)
        full = kernel(x)
        for offset in (0, 7, mt - 3):
            for m in range(1, mt + 9):
                got = kernel(x[offset : offset + m])
                assert np.array_equal(got, full[offset : offset + m]), (
                    f"{np.dtype(dtype).name}: batch of {m} rows at offset "
                    f"{offset} differs from the {len(x)}-row call"
                )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_blas_rows_do_not_depend_on_8_row_groups(self, dtype):
        kernel = _paper_kernel(dtype)
        mt, kt = kernel.plan.m_tile, kernel.plan.k_tile
        rng = np.random.default_rng(13)
        for n in kernel.channels[1:]:
            a = rng.standard_normal((mt, kt)).astype(dtype)
            w = rng.standard_normal((kt, n)).astype(dtype)
            ref = np.matmul(a, w)
            for mb in range(MIN_TILE, mt + 1, MIN_TILE):
                assert np.array_equal(np.matmul(a[:mb], w), ref[:mb]), (
                    f"({mb}, {kt}) @ ({kt}, {n}) {np.dtype(dtype).name} rows "
                    f"differ from the ({mt}, {kt}) call's on {_blas_name()}: "
                    f"this BLAS breaks the row-padding premise of "
                    f"TileGEMMKernel"
                )


class TestTilePlan:
    def test_plan_is_fixed_and_clamped(self):
        plan = plan_tiles(*_weights_biases(_net(seed=1)))
        assert MIN_TILE <= plan.m_tile <= MAX_M_TILE
        assert plan.m_tile & (plan.m_tile - 1) == 0  # power of two
        assert plan.k_tile & (plan.k_tile - 1) == 0
        assert plan.channels == (64, 16, 8, 1)
        assert plan.k_panels(64) == -(-64 // plan.k_tile)
        # Pure function of shape + spec: rebuilt plans are identical.
        assert plan == plan_tiles(*_weights_biases(_net(seed=2)))

    def test_paper_network_fits(self):
        """The paper's (64, 128, 128, 128, 64, 1) network plans cleanly."""
        plan = plan_tiles(*_weights_biases(_net((64, 128, 128, 128, 64, 1))))
        assert plan.m_tile >= MIN_TILE
        assert plan.k_tile >= MIN_TILE

    def test_oversized_network_overflows_ldm(self):
        with pytest.raises(LDMOverflowError):
            plan_tiles(*_weights_biases(_net((4096, 4096, 1))))

    def test_mismatched_lists_rejected(self):
        net = _net(seed=1)
        with pytest.raises(ValueError, match="mismatch"):
            plan_tiles(net.weights, net.biases[:-1])


class TestZeroVarianceStandardisation:
    """Regression: ``feature_std == 0`` used to turn every energy into NaN.

    Before the install-time clamp, ``normalise`` divided by the raw std, so
    a feature that was constant over the training set (std exactly 0 —
    routine for shells a species never reaches) poisoned all downstream
    energies with NaN/Inf.
    """

    def _poisoned(self, nnp_template):
        from repro.nnp import ElementNetworks, NNPotential
        from repro.potentials import FeatureTable

        table = FeatureTable(nnp_template.shell_distances)
        nets = ElementNetworks((2 * table.n_dim, 16, 8, 1), np.random.default_rng(0))
        model = NNPotential(table, nets, rcut=2.87)
        n_feat = 2 * table.n_dim
        std = np.full(n_feat, 2.0, dtype=np.float32)
        std[[0, 5, n_feat - 1]] = 0.0  # zero-variance features
        model.set_standardisation(
            feature_mean=np.zeros(n_feat, dtype=np.float32),
            feature_std=std,
            reference_energies=np.array([-4.0, -3.5]),
            energy_scale=0.05,
        )
        return model

    def test_zero_std_is_clamped_at_install(self, nnp_small):
        model = self._poisoned(nnp_small)
        assert np.all(model.feature_std > 0.0)
        assert np.all(np.isfinite(model._inv_std))

    def test_energies_stay_finite(self, nnp_small, tet_small):
        model = self._poisoned(nnp_small)
        rng = np.random.default_rng(1)
        types = rng.integers(0, 3, size=32)
        counts = rng.integers(0, 5, size=(32, tet_small.n_shells, 2)).astype(
            np.float32
        )
        energies = model.energies_from_counts(types, counts)
        assert np.all(np.isfinite(energies))

    def test_nan_std_also_clamped(self, nnp_small):
        model = self._poisoned(nnp_small)
        n_feat = model.feature_mean.shape[0]
        std = np.full(n_feat, 1.0, dtype=np.float32)
        std[3] = np.nan
        model.set_standardisation(
            model.feature_mean, std, model.reference_energies, model.energy_scale
        )
        assert np.all(model.feature_std > 0.0)
        assert np.all(np.isfinite(model._inv_std))
