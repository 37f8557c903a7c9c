"""Table 1 memory models validated against the live engine allocations."""

import numpy as np
import pytest

from repro.baseline import (
    OpenKMCEngine,
    format_table,
    openkmc_memory_model,
    tensorkmc_memory_model,
)
from repro.core import TensorKMCEngine
from repro.lattice import LatticeState
from repro.parallel import SublatticeKMC
from repro.potentials import FeatureTable


def _alloy(seed=5):
    lat = LatticeState((8, 8, 8))
    lat.randomize_alloy(np.random.default_rng(seed), 0.05, 0.003)
    return lat


class TestOpenKMCModel:
    def test_model_matches_live_engine(self, tet_small, eam_small):
        lat = _alloy()
        engine = OpenKMCEngine(
            lat, eam_small, tet_small, maintain_atom_arrays=False
        )
        live = engine.memory_report()
        model = openkmc_memory_model(lat.n_sites, mode="eam")
        for key in ("lattice", "T", "POS_ID", "E_V", "E_R"):
            assert model[key] == live[key], key
        assert model["total"] == live["total"]

    def test_nnp_mode_charges_features(self, tet_small, nnp_small):
        lat = _alloy()
        engine = OpenKMCEngine(
            lat, nnp_small, tet_small, maintain_atom_arrays=False
        )
        live = engine.memory_report()
        model = openkmc_memory_model(lat.n_sites, mode="nnp")
        assert model["features"] == live["features"]

    def test_linear_scaling(self):
        small = openkmc_memory_model(1_000_000)
        big = openkmc_memory_model(2_000_000)
        assert big["total"] == pytest.approx(2 * small["total"])

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            openkmc_memory_model(100, mode="bogus")


class TestTensorKMCModel:
    @staticmethod
    def _assert_model_equals_live(kernel, n_sites, tet):
        """After a full refresh every live slot is fresh and delta-ready."""
        kernel.refresh()
        cache = kernel.cache
        n_live = cache.n_live
        assert int(np.count_nonzero(cache.live & cache.fresh)) == n_live
        model = tensorkmc_memory_model(n_sites, n_live, tet)
        assert model["VAC_cache"] == cache.memory_bytes()

    def test_cache_entry_bytes_close_to_live(self, tet_small, eam_small):
        lat = _alloy()
        engine = TensorKMCEngine(
            lat, eam_small, tet_small, rng=np.random.default_rng(0)
        )
        engine.run(n_steps=5)
        self._assert_model_equals_live(engine.kernel, lat.n_sites, tet_small)

    def test_rank_cache_bytes_equal_live(self, tet_small, eam_small):
        lat = LatticeState((16, 16, 16))
        lat.randomize_alloy(np.random.default_rng(5), 0.05, 0.002)
        sim = SublatticeKMC(lat, eam_small, tet_small, n_ranks=2, seed=0)
        sim.run(3)
        for rank in sim.ranks:
            rank.kernel.set_active(None)
            self._assert_model_equals_live(rank.kernel, lat.n_sites, tet_small)

    def test_vacancy_cache_independent_of_domain_size(self, tet_small):
        a = tensorkmc_memory_model(1_000_000, 10, tet_small)
        b = tensorkmc_memory_model(100_000_000, 10, tet_small)
        assert a["VAC_cache"] == b["VAC_cache"]

    def test_paper_memory_ratio(self, tet_standard):
        """TensorKMC needs a small fraction of OpenKMC's memory (Table 1)."""
        n_sites = 128_000_000
        n_vac = int(8e-6 * n_sites)
        table = FeatureTable(tet_standard.shell_distances)
        open_mem = openkmc_memory_model(n_sites, mode="eam")
        tensor_mem = tensorkmc_memory_model(n_sites, n_vac, tet_standard, table)
        ratio = tensor_mem["total"] / open_mem["total"]
        assert ratio < 0.34  # paper: ~1/3 at runtime, far less on arrays


class TestFormatting:
    def test_format_table_contains_rows(self, tet_small):
        rows = {
            "OpenKMC": openkmc_memory_model(1000),
            "TensorKMC": tensorkmc_memory_model(1000, 2, tet_small),
        }
        text = format_table(rows)
        assert "POS_ID" in text and "VAC_cache" in text and "total" in text
