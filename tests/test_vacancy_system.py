"""Vacancy-system evaluation vs brute-force whole-lattice energies.

The defining claim of the triple encoding (paper Sec. 3.1) is that a hop's
energy change is fully captured by the jumping region: the delta computed
from one vacancy system must equal the difference of *total lattice* energies
before and after actually performing the swap.
"""

import re

import numpy as np
import pytest

from repro.constants import CU, FE, VACANCY
from repro.core.vacancy_system import VacancySystemEvaluator
from repro.lattice import LatticeState
from repro.potentials import counts_from_types


def _total_lattice_energy(lattice, potential, tet):
    ids = np.arange(lattice.n_sites)
    half = lattice.half_coords(ids)
    nb = lattice.ids_from_half(half[:, None, :] + tet.cet_offsets[None, :, :])
    counts = counts_from_types(lattice.occupancy[nb], tet.cet_shell, tet.n_shells)
    return potential.region_energy(lattice.occupancy[ids], counts)


def _vet_of(lattice, tet, site):
    return lattice.occupancy[lattice.neighbor_ids(site, tet.all_offsets)]


@pytest.fixture()
def vacancy_setup(tet_small, eam_small):
    lattice = LatticeState((8, 8, 8))
    rng = np.random.default_rng(17)
    lattice.occupancy[:] = np.where(rng.random(lattice.n_sites) < 0.08, CU, FE)
    vac_site = lattice.site_id(0, 4, 4, 4)
    lattice.occupancy[vac_site] = VACANCY
    evaluator = VacancySystemEvaluator(tet_small, eam_small)
    return lattice, vac_site, evaluator


class TestDeltaAgainstBruteForce:
    @pytest.mark.parametrize("direction", range(8))
    def test_delta_matches_total_energy_difference(
        self, vacancy_setup, tet_small, eam_small, direction
    ):
        lattice, vac, evaluator = vacancy_setup
        energies = evaluator.evaluate(_vet_of(lattice, tet_small, vac))
        e_before = _total_lattice_energy(lattice, eam_small, tet_small)
        target = int(
            lattice.neighbor_ids(vac, tet_small.nn_offsets[direction][None, :])[0]
        )
        trial = lattice.copy()
        trial.swap(vac, target)
        e_after = _total_lattice_energy(trial, eam_small, tet_small)
        assert energies.delta[direction] == pytest.approx(
            e_after - e_before, abs=1e-8
        )

    def test_delta_with_nnp_matches_brute_force(self, tet_small, nnp_small):
        lattice = LatticeState((8, 8, 8))
        rng = np.random.default_rng(23)
        lattice.occupancy[:] = np.where(rng.random(lattice.n_sites) < 0.1, CU, FE)
        vac = lattice.site_id(1, 3, 3, 3)
        lattice.occupancy[vac] = VACANCY
        evaluator = VacancySystemEvaluator(tet_small, nnp_small)
        energies = evaluator.evaluate(_vet_of(lattice, tet_small, vac))
        e_before = _total_lattice_energy(lattice, nnp_small, tet_small)
        for direction in (0, 3, 7):
            target = int(
                lattice.neighbor_ids(vac, tet_small.nn_offsets[direction][None, :])[0]
            )
            trial = lattice.copy()
            trial.swap(vac, target)
            e_after = _total_lattice_energy(trial, nnp_small, tet_small)
            # float32 network -> looser tolerance than the EAM (float64) path.
            assert energies.delta[direction] == pytest.approx(
                e_after - e_before, abs=5e-4
            )


class TestTrialStates:
    def test_trial_vets_swap_semantics(self, vacancy_setup, tet_small):
        lattice, vac, evaluator = vacancy_setup
        vet = _vet_of(lattice, tet_small, vac)
        states = evaluator.trial_vets(vet)
        assert np.array_equal(states[0], vet)
        for k in range(8):
            s = states[1 + k]
            assert s[0] == vet[1 + k]
            assert s[1 + k] == VACANCY
            mask = np.ones(len(vet), dtype=bool)
            mask[[0, 1 + k]] = False
            assert np.array_equal(s[mask], vet[mask])

    def test_rejects_non_vacancy_center(self, vacancy_setup, tet_small):
        lattice, vac, evaluator = vacancy_setup
        vet = _vet_of(lattice, tet_small, vac).copy()
        vet[0] = FE
        with pytest.raises(ValueError):
            evaluator.evaluate(vet)

    def test_rejects_wrong_shape(self, vacancy_setup):
        _, _, evaluator = vacancy_setup
        with pytest.raises(ValueError):
            evaluator.trial_vets(np.zeros(3, dtype=np.uint8))

    def test_vacancy_neighbor_marked_invalid(self, tet_small, eam_small):
        lattice = LatticeState((8, 8, 8))
        lattice.occupancy[:] = FE
        vac = lattice.site_id(0, 4, 4, 4)
        lattice.occupancy[vac] = VACANCY
        # Put a second vacancy on the first 1NN site.
        nb = int(lattice.neighbor_ids(vac, tet_small.nn_offsets[0][None, :])[0])
        lattice.occupancy[nb] = VACANCY
        evaluator = VacancySystemEvaluator(tet_small, eam_small)
        energies = evaluator.evaluate(_vet_of(lattice, tet_small, vac))
        assert not energies.valid[0]
        assert np.all(energies.valid[1:])

    def test_pure_fe_deltas_are_symmetric_zero(self, tet_small, eam_small):
        """In pure Fe all eight hops are equivalent: delta == 0 exactly."""
        lattice = LatticeState((8, 8, 8))
        lattice.occupancy[:] = FE
        vac = lattice.site_id(0, 4, 4, 4)
        lattice.occupancy[vac] = VACANCY
        evaluator = VacancySystemEvaluator(tet_small, eam_small)
        energies = evaluator.evaluate(_vet_of(lattice, tet_small, vac))
        assert np.allclose(energies.delta, 0.0, atol=1e-10)

    def test_migrating_species_reported(self, vacancy_setup, tet_small):
        lattice, vac, evaluator = vacancy_setup
        vet = _vet_of(lattice, tet_small, vac)
        energies = evaluator.evaluate(vet)
        assert np.array_equal(energies.migrating_species, vet[1:9])

    def test_shell_mismatch_rejected(self, tet_standard, eam_small):
        with pytest.raises(ValueError):
            VacancySystemEvaluator(tet_standard, eam_small)


class TestDeltaPath:
    """The engines' patched encode (state-0 counts, eight swap states
    patched from them) is bit-identical to the full 9-state encode."""

    @staticmethod
    def _assert_bitwise(evaluator, vet):
        full = evaluator.evaluate(vet)
        fast = evaluator.evaluate_batch(vet[None]).row(0)
        assert fast.initial == full.initial
        assert np.array_equal(fast.delta, full.delta)
        assert np.array_equal(fast.valid, full.valid)
        assert np.array_equal(fast.migrating_species, full.migrating_species)
        return fast

    def test_delta_matches_full_eam(self, vacancy_setup, tet_small):
        lattice, vac, evaluator = vacancy_setup
        self._assert_bitwise(evaluator, _vet_of(lattice, tet_small, vac))

    def test_delta_matches_full_nnp(self, tet_small, nnp_small):
        lattice = LatticeState((8, 8, 8))
        rng = np.random.default_rng(31)
        lattice.occupancy[:] = np.where(rng.random(lattice.n_sites) < 0.1, CU, FE)
        vac = lattice.site_id(0, 4, 4, 4)
        lattice.occupancy[vac] = VACANCY
        evaluator = VacancySystemEvaluator(tet_small, nnp_small)
        self._assert_bitwise(evaluator, _vet_of(lattice, tet_small, vac))

    def test_delta_standard_cutoff(self, tet_standard, eam_standard):
        lattice = LatticeState((10, 10, 10))
        rng = np.random.default_rng(41)
        lattice.occupancy[:] = np.where(rng.random(lattice.n_sites) < 0.08, CU, FE)
        vac = lattice.site_id(1, 5, 5, 5)
        lattice.occupancy[vac] = VACANCY
        evaluator = VacancySystemEvaluator(tet_standard, eam_standard)
        self._assert_bitwise(evaluator, _vet_of(lattice, tet_standard, vac))

    def test_delta_handles_invalid_directions(self, tet_small, eam_small):
        lattice = LatticeState((8, 8, 8))
        lattice.occupancy[:] = FE
        vac = lattice.site_id(0, 4, 4, 4)
        lattice.occupancy[vac] = VACANCY
        nb = int(lattice.neighbor_ids(vac, tet_small.nn_offsets[2][None, :])[0])
        lattice.occupancy[nb] = VACANCY
        evaluator = VacancySystemEvaluator(tet_small, eam_small)
        fast = self._assert_bitwise(
            evaluator, _vet_of(lattice, tet_small, vac)
        )
        assert not fast.valid[2]
        assert fast.delta[2] == 0.0

    def test_delta_validates_input(self, vacancy_setup, tet_small):
        _, _, evaluator = vacancy_setup
        with pytest.raises(ValueError):
            evaluator.evaluate_batch(np.zeros((1, 3), dtype=np.uint8))
        bad = np.zeros((1, tet_small.n_all), dtype=np.uint8)  # centre not vacancy
        with pytest.raises(ValueError):
            evaluator.evaluate_batch(bad)


class TestDetailedBalance:
    """Physics: forward/backward hop rates obey detailed balance."""

    def test_reverse_hop_negates_delta(self, vacancy_setup, tet_small, eam_small):
        lattice, vac, evaluator = vacancy_setup
        fwd = evaluator.evaluate(_vet_of(lattice, tet_small, vac))
        for direction in (0, 5):
            target = int(
                lattice.neighbor_ids(vac, tet_small.nn_offsets[direction][None, :])[0]
            )
            trial = lattice.copy()
            trial.swap(vac, target)
            back = evaluator.evaluate(_vet_of(trial, tet_small, target))
            reverse = 7 - direction  # nn_offsets are inversion-ordered
            assert np.array_equal(
                tet_small.nn_offsets[reverse], -tet_small.nn_offsets[direction]
            )
            assert back.delta[reverse] == pytest.approx(
                -fwd.delta[direction], abs=1e-9
            )

    def test_rate_ratio_is_boltzmann(self, vacancy_setup, tet_small, eam_small):
        from repro.constants import KB_EV
        from repro.core.rates import RateModel

        lattice, vac, evaluator = vacancy_setup
        temperature = 700.0
        model = RateModel(temperature)
        fwd = evaluator.evaluate(_vet_of(lattice, tet_small, vac))
        rates_fwd = model.rates(fwd)
        direction = 3
        target = int(
            lattice.neighbor_ids(vac, tet_small.nn_offsets[direction][None, :])[0]
        )
        trial = lattice.copy()
        trial.swap(vac, target)
        back = evaluator.evaluate(_vet_of(trial, tet_small, target))
        rates_back = model.rates(back)
        reverse = 7 - direction
        expected = np.exp(-fwd.delta[direction] / (KB_EV * temperature))
        assert rates_fwd[direction] / rates_back[reverse] == pytest.approx(
            expected, rel=1e-9
        )


class TestNonFiniteEnergies:
    """A non-finite energy from a bad potential is refused before the row
    cache can store it, with the pair and state that produced it."""

    def test_nan_bias_raises_and_cache_keeps_its_entries(self, tet_small):
        from repro.core.rowcache import RowEnergyCache
        from repro.nnp import ElementNetworks, NNPotential
        from repro.potentials import FeatureTable

        table = FeatureTable(tet_small.shell_distances)
        nets = ElementNetworks((2 * table.n_dim, 16, 8, 1), np.random.default_rng(3))
        model = NNPotential(table, nets, rcut=2.87)
        evaluator = VacancySystemEvaluator(tet_small, model)
        cache = evaluator.attach_row_cache(RowEnergyCache())

        lattice = LatticeState((8, 8, 8))
        rng = np.random.default_rng(5)
        lattice.occupancy[:] = np.where(rng.random(lattice.n_sites) < 0.1, CU, FE)
        vacs = [lattice.site_id(0, 2, 2, 2), lattice.site_id(1, 5, 5, 5)]
        lattice.occupancy[vacs] = VACANCY
        vets = np.stack([_vet_of(lattice, tet_small, v) for v in vacs])
        n_region = tet_small.n_region
        rows = np.arange(n_region)
        evaluator.evaluate_rows(vets, np.zeros(n_region, dtype=np.intp), rows)
        n_cached = len(cache)
        assert n_cached > 0

        for net in nets.nets.values():
            net.biases[-1][:] = np.nan
        with pytest.raises(ValueError) as err:
            evaluator.evaluate_rows(vets, np.ones(n_region, dtype=np.intp), rows)
        assert len(cache) == n_cached
        msg = str(err.value)
        assert "non-finite row energy from NNPotential" in msg
        found = re.search(
            r"batch row (\d+), region row (\d+), trial state (\d+)", msg
        )
        assert found is not None, msg
        b, r, state = map(int, found.groups())
        assert b == 1 and 0 <= r < n_region and 0 <= state <= tet_small.N_DIRECTIONS
