"""The pluggable array backend: resolver, NumPy bit-exactness, torch parity.

Three layers of guarantees:

* the resolver (`get_backend`) honours explicit argument > ``REPRO_BACKEND``
  env > numpy, rejects unknown names with a clear ``ValueError``, and keeps
  the torch backend import-guarded;
* the NumPy backend is the bit-exact golden reference — fixed-seed engine
  runs under ``backend="numpy"`` reproduce the default path byte for byte,
  and the backend-threaded utilities (``counts_from_types``, ``fused_layer``)
  match an independent reference implementation exactly (hypothesis-fuzzed);
* the optional torch backend agrees with NumPy within documented tolerances
  (float32 GEMMs may differ in final bits across BLAS implementations);
  every torch test auto-skips when torch is not importable.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TensorKMCEngine
from repro.core.backend import (
    ArrayBackend,
    BackendUnavailableError,
    NumpyBackend,
    TorchBackend,
    available_backends,
    get_backend,
    register_backend,
    to_numpy,
)
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.lattice import LatticeState
from repro.operators.fused import fused_layer
from repro.potentials import counts_from_types


def _torch_available() -> bool:
    try:
        import torch  # noqa: F401
    except ImportError:
        return False
    return True


needs_torch = pytest.mark.skipif(
    not _torch_available(), reason="torch not importable in this environment"
)


def _alloy(shape=(6, 6, 6), seed=2024):
    lattice = LatticeState(shape)
    lattice.randomize_alloy(
        np.random.default_rng(seed), cu_fraction=0.05, vacancy_fraction=0.004
    )
    return lattice


def _digest(lattice) -> str:
    return hashlib.sha256(lattice.occupancy.tobytes()).hexdigest()


# ----------------------------------------------------------------------
# Resolver
# ----------------------------------------------------------------------
class TestResolver:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        xp = get_backend()
        assert isinstance(xp, NumpyBackend)
        assert xp.is_numpy and xp.name == "numpy"

    def test_name_and_instance_resolution(self):
        xp = get_backend("numpy")
        assert get_backend("numpy") is xp  # cached per name
        assert get_backend(xp) is xp  # instance passthrough

    def test_unknown_name_raises_listing_registry(self):
        with pytest.raises(ValueError, match="unknown array backend"):
            get_backend("cupy")
        with pytest.raises(ValueError, match="numpy"):
            get_backend("cupy")

    def test_env_variable_selects_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert get_backend().is_numpy
        monkeypatch.setenv("REPRO_BACKEND", "not-a-backend")
        with pytest.raises(ValueError, match="unknown array backend"):
            get_backend()

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "not-a-backend")
        assert get_backend("numpy").is_numpy

    def test_registry_lists_numpy_and_torch(self):
        names = available_backends()
        assert "numpy" in names and "torch" in names
        assert "numpy" in available_backends(probe=True)

    def test_register_backend_round_trip(self):
        class Fake(NumpyBackend):
            name = "fake-for-test"

        register_backend("fake-for-test", Fake)
        try:
            assert get_backend("fake-for-test").name == "fake-for-test"
        finally:
            # Leave the global registry as we found it.
            from repro.core import backend as backend_mod

            backend_mod._FACTORIES.pop("fake-for-test", None)
            backend_mod._INSTANCES.pop("fake-for-test", None)

    def test_torch_backend_import_guard(self):
        if _torch_available():
            assert get_backend("torch").name == "torch"
        else:
            with pytest.raises(BackendUnavailableError, match="torch"):
                get_backend("torch")

    def test_engine_rejects_unknown_backend(self, tet_small, eam_small):
        with pytest.raises(ValueError, match="unknown array backend"):
            TensorKMCEngine(
                _alloy(), eam_small, tet_small,
                rng=np.random.default_rng(0), backend="not-a-backend",
            )


# ----------------------------------------------------------------------
# NumPy backend op contract
# ----------------------------------------------------------------------
class TestNumpyBackendOps:
    xp = get_backend("numpy")

    def test_round_trip_is_identity(self):
        a = np.arange(6, dtype=np.float32)
        assert self.xp.from_numpy(a) is not None
        assert self.xp.to_numpy(a) is a
        assert to_numpy(a) is a

    def test_relu_is_in_place(self):
        a = np.array([-1.0, 2.0, -3.0])
        out = self.xp.relu_(a)
        assert out is a
        np.testing.assert_array_equal(a, [0.0, 2.0, 0.0])

    def test_broadcast_copy_is_writable(self):
        base = np.array([1.0, 2.0])
        out = self.xp.broadcast_copy(base[None, :], (3, 2))
        out[0, 0] = 9.0  # must not raise (np.broadcast_to alone is read-only)
        assert base[0] == 1.0

    def test_unique_first_inverse_matches_numpy(self):
        keys = np.array([5, 3, 5, 1, 3, 5], dtype=np.int64)
        first, inverse = self.xp.unique_first_inverse(keys)
        _, ref_first, ref_inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        np.testing.assert_array_equal(first, ref_first)
        np.testing.assert_array_equal(inverse, ref_inverse)

    @given(
        n_idx=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_scatter_add_accumulates_duplicates(self, n_idx, seed):
        # The contract: x[indices] += values with np.add.at semantics —
        # repeated index tuples accumulate (sequentially, in order) instead
        # of last-write-wins, and the array is updated in place.
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 5)).astype(np.float32)
        rows = rng.integers(0, 4, size=n_idx)
        cols = rng.integers(0, 5, size=n_idx)
        vals = rng.standard_normal(n_idx).astype(np.float32)
        ref = x.copy()
        np.add.at(ref, (rows, cols), vals)
        out = self.xp.scatter_add(x, (rows, cols), vals)
        assert out is x
        np.testing.assert_array_equal(x, ref)

    def test_scatter_add_single_axis_and_scalar_values(self):
        x = np.zeros(6, dtype=np.float64)
        out = self.xp.scatter_add(
            x, (np.array([2, 2, 5, 2]),), np.array([1.0, 2.0, 3.0, 4.0])
        )
        assert out is x
        np.testing.assert_array_equal(x, [0.0, 0.0, 7.0, 0.0, 0.0, 3.0])

    @given(
        n=st.integers(min_value=1, max_value=32),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_reduction_ops_bitwise(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n)
        assert float(self.xp.sum(x)) == float(np.sum(x))
        np.testing.assert_array_equal(self.xp.cumsum(x), np.cumsum(x))
        s = np.sort(x)
        v = float(rng.standard_normal())
        assert self.xp.searchsorted(s, v, side="right") == np.searchsorted(
            s, v, side="right"
        )


# ----------------------------------------------------------------------
# Bit-exactness of the backend-threaded utilities (hypothesis fuzz)
# ----------------------------------------------------------------------
def _counts_reference(neighbor_types, neighbor_shell, n_shells, n_elements):
    """Straightforward loop reference for counts_from_types."""
    neighbor_types = np.asarray(neighbor_types)
    lead = neighbor_types.shape[:-1]
    flat = neighbor_types.reshape(-1, neighbor_types.shape[-1])
    out = np.zeros((flat.shape[0], n_shells, n_elements), dtype=np.float32)
    for row in range(flat.shape[0]):
        for slot, t in enumerate(flat[row]):
            if 0 <= int(t) < n_elements:
                out[row, int(neighbor_shell[slot]), int(t)] += 1.0
    return out.reshape(*lead, n_shells, n_elements)


class TestNumpyBitExactness:
    @given(
        n_rows=st.integers(min_value=1, max_value=6),
        n_local=st.integers(min_value=1, max_value=12),
        n_shells=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_from_types_matches_reference(
        self, n_rows, n_local, n_shells, seed
    ):
        rng = np.random.default_rng(seed)
        types = rng.integers(0, 4, size=(n_rows, n_local)).astype(np.int16)
        shells = rng.integers(0, n_shells, size=n_local).astype(np.int16)
        got = counts_from_types(types, shells, n_shells, n_elements=2)
        ref = _counts_reference(types, shells, n_shells, 2)
        np.testing.assert_array_equal(got, ref)
        # Explicit numpy backend: the identical call, hence identical bits.
        via_xp = counts_from_types(
            types, shells, n_shells, n_elements=2, xp=get_backend("numpy")
        )
        np.testing.assert_array_equal(via_xp, got)

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

    def test_seeded_run_identical_under_explicit_numpy(
        self, tet_small, eam_small
    ):
        """backend="numpy" replays the default path byte for byte."""
        runs = {}
        for backend in (None, "numpy"):
            lattice = _alloy()
            engine = TensorKMCEngine(
                lattice, eam_small, tet_small,
                rng=np.random.default_rng(7), backend=backend,
            )
            engine.run(n_steps=60)
            runs[backend] = (_digest(lattice), engine.time)
        assert runs[None] == runs["numpy"]

    def test_seeded_nnp_run_identical_under_explicit_numpy(
        self, tet_small, nnp_small
    ):
        runs = {}
        for backend in (None, "numpy"):
            lattice = _alloy(seed=31)
            engine = TensorKMCEngine(
                lattice, nnp_small, tet_small,
                rng=np.random.default_rng(9), backend=backend,
            )
            engine.run(n_steps=30)
            runs[backend] = (_digest(lattice), engine.time)
        assert runs[None] == runs["numpy"]


# ----------------------------------------------------------------------
# Torch backend (auto-skips without torch)
# ----------------------------------------------------------------------
@needs_torch
class TestTorchBackend:
    #: float32 GEMMs may differ in the final bits between BLAS and torch;
    #: energies are float32 sums of O(10) such terms.
    RTOL = 1e-5
    ATOL = 1e-6

    def xp(self) -> ArrayBackend:
        return get_backend("torch")

    def test_round_trip(self):
        xp = self.xp()
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        t = xp.from_numpy(a)
        np.testing.assert_array_equal(xp.to_numpy(t), a)
        np.testing.assert_array_equal(to_numpy(t), a)

    def test_unique_first_inverse_matches_numpy(self):
        xp = self.xp()
        keys = np.array([7, 2, 7, 7, 5, 2, 9], dtype=np.int64)
        first, inverse = xp.unique_first_inverse(xp.from_numpy(keys))
        _, ref_first, ref_inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        np.testing.assert_array_equal(np.asarray(first), ref_first)
        np.testing.assert_array_equal(xp.to_numpy(inverse), ref_inverse)

    def test_scatter_add_matches_numpy_on_integer_values(self):
        # Duplicate accumulation order may differ across backends, so the
        # parity check uses exact integer values where any order gives the
        # same bits.
        xp = self.xp()
        rng = np.random.default_rng(11)
        x = rng.integers(-5, 5, size=(3, 7)).astype(np.float32)
        rows = rng.integers(0, 3, size=40)
        cols = rng.integers(0, 7, size=40)
        vals = rng.integers(-3, 4, size=40).astype(np.float32)
        ref = x.copy()
        np.add.at(ref, (rows, cols), vals)
        t = xp.from_numpy(x)
        out = xp.scatter_add(t, (rows, cols), vals)
        assert out is t
        np.testing.assert_array_equal(xp.to_numpy(t), ref)

    def test_counts_from_types_exact(self):
        # Integer counts in float32 are exact on every backend.
        rng = np.random.default_rng(3)
        types = rng.integers(0, 4, size=(5, 14)).astype(np.int16)
        shells = rng.integers(0, 2, size=14).astype(np.int16)
        ref = counts_from_types(types, shells, 2, n_elements=2)
        xp = self.xp()
        got = xp.to_numpy(
            counts_from_types(types, shells, 2, n_elements=2, xp=xp)
        )
        np.testing.assert_array_equal(got, ref)

    def test_nnp_rates_agree_with_numpy(self, tet_small, nnp_small):
        ref = TensorKMCEngine(
            _alloy(seed=5), nnp_small, tet_small,
            rng=np.random.default_rng(1), backend="numpy",
        )
        ref.kernel.refresh()
        tor = TensorKMCEngine(
            _alloy(seed=5), nnp_small, tet_small,
            rng=np.random.default_rng(1), backend="torch",
        )
        tor.kernel.refresh()
        assert ref.kernel.total == pytest.approx(
            tor.kernel.total, rel=self.RTOL
        )
        for slot in ref.kernel.cache.live_slots():
            np.testing.assert_allclose(
                tor.kernel.cache.get(slot).rates,
                ref.kernel.cache.get(slot).rates,
                rtol=self.RTOL, atol=self.ATOL,
            )

    def test_checkpoint_cross_backend_restore(
        self, tmp_path, tet_small, eam_small
    ):
        engine = TensorKMCEngine(
            _alloy(), eam_small, tet_small,
            rng=np.random.default_rng(4), backend="numpy",
        )
        engine.run(n_steps=20)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, engine)
        resumed = load_checkpoint(path, eam_small, backend="torch")
        assert resumed.xp.name == "torch"
        assert resumed.total_propensity() == pytest.approx(
            engine.total_propensity(), rel=self.RTOL
        )
