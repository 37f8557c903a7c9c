"""Features: the program's encode against the serial reference loop, and
the fast feature operator's cost (Fig. 11) and LDM residency."""

from dataclasses import replace

import numpy as np
import pytest

from repro.constants import CU, FE, N_ELEMENTS, PAPER_CHANNELS, VACANCY
from repro.core.tet import TripleEncoding
from repro.core.vacancy_system import VacancySystemEvaluator
from repro.lattice import LatticeState
from repro.operators import FEATURE_ENTRY_BYTES, charge_features, feature_ldm_budget
from repro.potentials import EAMPotential, FeatureTable
from repro.sunway import SW26010_PRO, CostLedger, LDMOverflowError, LDMBudget

#: Descriptor width of the paper's feature table (the network input is
#: ``N_ELEMENTS * N_DIM`` wide).
N_DIM = PAPER_CHANNELS[0] // N_ELEMENTS


#: The Fig. 11 SW(opt) feature ledger of one vacancy system (1 + 8 states):
#: ``(overlapped_time(), total_bytes, LDM bytes used)`` at both cutoffs.
FIG11_FEATURE = {
    6.5: (4.759579765625e-05, 2334504.84, 125661),
    5.8: (2.2701094531250003e-05, 1059896.04, 52121),
}


@pytest.mark.parametrize("rcut", sorted(FIG11_FEATURE))
def test_pinned_fig11_feature_ledger(rcut):
    tet = TripleEncoding(rcut=rcut)
    ledger = charge_features(CostLedger(SW26010_PRO), tet, N_DIM)
    ldm = feature_ldm_budget(tet, N_DIM)
    got = (ledger.overlapped_time(), ledger.total_bytes, ldm.used)
    assert got == FIG11_FEATURE[rcut]


@pytest.fixture(scope="module")
def evaluator_and_states(tet_small):
    lattice = LatticeState((8, 8, 8))
    rng = np.random.default_rng(12)
    lattice.occupancy[:] = np.where(rng.random(lattice.n_sites) < 0.1, CU, FE)
    vac = lattice.site_id(0, 4, 4, 4)
    lattice.occupancy[vac] = VACANCY
    vet = lattice.occupancy[lattice.neighbor_ids(vac, tet_small.all_offsets)]
    evaluator = VacancySystemEvaluator(
        tet_small, EAMPotential(tet_small.shell_distances)
    )
    return evaluator, evaluator.trial_vets(vet)


def _features_mpe_serial(states, tet, table):
    """The serial (MPE and x86) feature loop: for every state, region site
    and neighbour, accumulate the neighbour species' TABLE row."""
    n_dim = table.n_dim
    out = np.zeros(
        (states.shape[0], tet.n_region, N_ELEMENTS * n_dim), dtype=np.float32
    )
    for s, vet in enumerate(states):
        for i in range(tet.n_region):
            for j in range(tet.n_local):
                t = vet[tet.net_ids[i, j]]
                if t != VACANCY:
                    out[s, i, t * n_dim : (t + 1) * n_dim] += table.table[
                        tet.cet_shell[j]
                    ]
    return out


class TestEquivalence:
    """The evaluator's counts encode, which the batched miss path matches
    bit for bit, against the serial loop."""

    def test_serial_equals_fast(self, tet_small, evaluator_and_states):
        evaluator, states = evaluator_and_states
        table = FeatureTable(tet_small.shell_distances)
        counts = evaluator.region_features_counts(states)
        serial = _features_mpe_serial(states, tet_small, table)
        assert np.allclose(serial, table.features_from_counts(counts), atol=1e-5)

    def test_vacancy_neighbors_excluded(self, tet_small, evaluator_and_states):
        evaluator, _ = evaluator_and_states
        states = np.full((1, tet_small.n_all), VACANCY, dtype=np.uint8)
        assert np.all(evaluator.region_features_counts(states) == 0)


class TestCostAccounting:
    def test_charges_gather_and_dma(self, tet_small):
        ledger = charge_features(CostLedger(SW26010_PRO), tet_small, N_DIM)
        assert ledger.random_bytes == 0
        assert ledger.dma_transactions == 2
        assert ledger.notes["gather_time"] > 0

    def test_fast_operator_is_much_faster(self, tet_small):
        """Modeled speedup of the CPE feature operator is large (Fig. 11)."""
        serial_ledger = CostLedger(SW26010_PRO)
        entries = 9 * tet_small.n_region * tet_small.n_local
        serial_ledger.add_random_access(entries * FEATURE_ENTRY_BYTES)
        fast_ledger = charge_features(CostLedger(SW26010_PRO), tet_small, N_DIM)
        speedup = serial_ledger.serial_time() / fast_ledger.overlapped_time()
        # With the small test TET fixed DMA costs dominate; the paper's ~60x
        # is reached at the standard cutoff (below).
        assert speedup > 8.0

    def test_standard_cutoff_speedup_near_paper(self, tet_standard):
        """At r_cut = 6.5 A the modeled feature speedup approaches ~60x."""
        serial_ledger = CostLedger(SW26010_PRO)
        entries = 9 * tet_standard.n_region * tet_standard.n_local
        serial_ledger.add_random_access(entries * FEATURE_ENTRY_BYTES)
        fast_ledger = charge_features(CostLedger(SW26010_PRO), tet_standard, N_DIM)
        speedup = serial_ledger.serial_time() / fast_ledger.overlapped_time()
        assert 40.0 < speedup < 80.0  # paper: ~60x

    def test_ldm_residency_enforced(self, tet_small):
        """The LDM check is real: a tiny budget must overflow."""
        tiny_spec = replace(SW26010_PRO, ldm_bytes=1024)
        with pytest.raises(LDMOverflowError):
            feature_ldm_budget(tet_small, N_DIM, spec=tiny_spec)

    def test_standard_tet_fits_ldm(self, tet_standard):
        """The paper's 6.5-A tables really do fit one CPE's scratchpad."""
        ldm = feature_ldm_budget(tet_standard, N_DIM)
        assert ldm.used <= SW26010_PRO.ldm_bytes


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
