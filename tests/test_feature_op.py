"""Feature operators: serial, CPE-parallel, and engine paths all agree."""

import numpy as np
import pytest

from repro.constants import CU, FE, VACANCY
from repro.core.vacancy_system import VacancySystemEvaluator
from repro.lattice import LatticeState
from repro.operators import FastFeatureOperator, features_mpe_serial
from repro.potentials import FeatureTable
from repro.sunway import SW26010_PRO, CostLedger, LDMOverflowError, LDMBudget


@pytest.fixture(scope="module")
def states_and_table(tet_small):
    lattice = LatticeState((8, 8, 8))
    rng = np.random.default_rng(12)
    lattice.occupancy[:] = np.where(rng.random(lattice.n_sites) < 0.1, CU, FE)
    vac = lattice.site_id(0, 4, 4, 4)
    lattice.occupancy[vac] = VACANCY
    vet = lattice.occupancy[lattice.neighbor_ids(vac, tet_small.all_offsets)]

    class _Stub:
        shell_distances = tet_small.shell_distances
        n_shells = tet_small.n_shells

        def energies_from_counts(self, t, c):
            return np.zeros(len(t))

    from repro.potentials.base import CountsPotential

    CountsPotential.register(_Stub)
    evaluator = VacancySystemEvaluator(tet_small, _Stub())
    states = evaluator.trial_vets(vet)
    table = FeatureTable(tet_small.shell_distances)
    return states, table, evaluator


class TestEquivalence:
    def test_serial_equals_fast(self, tet_small, states_and_table):
        states, table, _ = states_and_table
        serial = features_mpe_serial(states, tet_small, table)
        fast = FastFeatureOperator(tet_small, table)(states)
        assert np.allclose(serial, fast, atol=1e-5)

    def test_fast_equals_engine_counts_path(self, tet_small, states_and_table):
        states, table, evaluator = states_and_table
        fast = FastFeatureOperator(tet_small, table)(states)
        counts = evaluator.region_features_counts(states)
        via_counts = table.features_from_counts(counts)
        assert np.allclose(fast, via_counts, atol=1e-6)

    def test_vacancy_neighbors_excluded(self, tet_small):
        table = FeatureTable(tet_small.shell_distances)
        states = np.full((1, tet_small.n_all), VACANCY, dtype=np.uint8)
        feats = FastFeatureOperator(tet_small, table)(states)
        assert np.all(feats == 0.0)


class TestCostAccounting:
    def test_serial_charges_random_access(self, tet_small, states_and_table):
        states, table, _ = states_and_table
        ledger = CostLedger(SW26010_PRO)
        features_mpe_serial(states, tet_small, table, ledger=ledger)
        assert ledger.random_bytes > 0
        assert ledger.dma_bytes == 0

    def test_fast_operator_is_much_faster(self, tet_small, states_and_table):
        """Modeled speedup of the CPE feature operator is large (Fig. 11)."""
        states, table, _ = states_and_table
        serial_ledger = CostLedger(SW26010_PRO)
        features_mpe_serial(states, tet_small, table, ledger=serial_ledger)
        fast_ledger = CostLedger(SW26010_PRO)
        FastFeatureOperator(tet_small, table)(states, ledger=fast_ledger)
        speedup = serial_ledger.serial_time() / fast_ledger.overlapped_time()
        # With the small test TET fixed DMA costs dominate; the paper's ~60x
        # is reached at the standard cutoff (checked in bench_fig11).
        assert speedup > 8.0

    def test_standard_cutoff_speedup_near_paper(self, tet_standard):
        """At r_cut = 6.5 A the modeled feature speedup approaches ~60x."""
        table = FeatureTable(tet_standard.shell_distances)
        states = np.zeros((9, tet_standard.n_all), dtype=np.uint8)
        serial_ledger = CostLedger(SW26010_PRO)
        entries = 9 * tet_standard.n_region * tet_standard.n_local
        from repro.operators import FEATURE_ENTRY_BYTES

        serial_ledger.add_random_access(entries * FEATURE_ENTRY_BYTES)
        fast_ledger = CostLedger(SW26010_PRO)
        FastFeatureOperator(tet_standard, table)(states, ledger=fast_ledger)
        speedup = serial_ledger.serial_time() / fast_ledger.overlapped_time()
        assert 40.0 < speedup < 80.0  # paper: ~60x

    def test_ldm_residency_enforced(self, tet_small):
        """The LDM check is real: a tiny budget must overflow."""
        table = FeatureTable(tet_small.shell_distances)
        from dataclasses import replace

        tiny_spec = replace(SW26010_PRO, ldm_bytes=1024)
        with pytest.raises(LDMOverflowError):
            FastFeatureOperator(tet_small, table, spec=tiny_spec)

    def test_standard_tet_fits_ldm(self, tet_standard):
        """The paper's 6.5-A tables really do fit one CPE's scratchpad."""
        table = FeatureTable(tet_standard.shell_distances)
        op = FastFeatureOperator(tet_standard, table)
        assert op.ldm.used <= SW26010_PRO.ldm_bytes


class TestLDMBudget:
    def test_alloc_free(self):
        b = LDMBudget(100)
        b.alloc("a", 60)
        assert b.available == 40
        b.free("a")
        assert b.available == 100

    def test_overflow(self):
        b = LDMBudget(100)
        with pytest.raises(LDMOverflowError):
            b.alloc("a", 101)

    def test_duplicate_name(self):
        b = LDMBudget(100)
        b.alloc("a", 10)
        with pytest.raises(ValueError):
            b.alloc("a", 10)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LDMBudget(100).alloc("a", -1)
