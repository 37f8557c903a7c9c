"""Multicomponent (Fe-Cu-Ni) support — the 'chemically complex alloys' path.

The paper's motivation names Cu, Ni, Mn and Si solutes; this exercises the
whole stack with a ternary system: element codes 0 (Fe), 1 (Cu), 2 (Ni) and
vacancy code 3.
"""

import numpy as np
import pytest

from repro.analysis import find_clusters, warren_cowley
from repro.constants import CU, FE
from repro.core import TensorKMCEngine, TripleEncoding
from repro.core.vacancy_system import VacancySystemEvaluator
from repro.lattice import LatticeState
from repro.nnp import ElementNetworks, NNPotential, NNPTrainer, generate_structures
from repro.potentials import EAMParameters, EAMPotential, FeatureTable, counts_from_types

NI = 2
VAC3 = 3


@pytest.fixture(scope="module")
def ternary_setup():
    tet = TripleEncoding(rcut=2.87)
    potential = EAMPotential(tet.shell_distances, EAMParameters.fe_cu_ni())
    return tet, potential


def _ternary_lattice(seed=5, shape=(8, 8, 8)):
    lattice = LatticeState(shape, vacancy_code=VAC3)
    rng = np.random.default_rng(seed)
    lattice.randomize_multicomponent(
        rng, {CU: 0.05, NI: 0.03}, vacancy_fraction=0.003
    )
    return lattice


class TestTernaryPotential:
    def test_n_elements(self, ternary_setup):
        _, potential = ternary_setup
        assert potential.n_elements == 3
        assert potential.vacancy_code == 3

    def test_oracle_forces_fd(self, ternary_setup):
        _, potential = ternary_setup
        rng = np.random.default_rng(0)
        a = 2.87
        pos = []
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    pos.append([i * a, j * a, k * a])
                    pos.append([(i + 0.5) * a, (j + 0.5) * a, (k + 0.5) * a])
        pos = np.asarray(pos) + rng.normal(0, 0.04, (16, 3))
        spec = rng.choice([FE, CU, NI], size=16)
        cell = np.array([2 * a] * 3)
        _, forces = potential.energy_and_forces(pos, spec, cell)
        h = 1e-5
        for idx in (0, 9):
            p1, p2 = pos.copy(), pos.copy()
            p1[idx, 0] += h
            p2[idx, 0] -= h
            e1, _ = potential.energy_and_forces(p1, spec, cell)
            e2, _ = potential.energy_and_forces(p2, spec, cell)
            assert -(e1 - e2) / (2 * h) == pytest.approx(forces[idx, 0], abs=1e-6)

    def test_counts_mask_excludes_vacancy_code_3(self, ternary_setup):
        tet, _ = ternary_setup
        types = np.array([[FE, CU, NI, VAC3] + [FE] * (tet.n_local - 4)])
        counts = counts_from_types(
            types, tet.cet_shell, tet.n_shells, n_elements=3
        )
        assert counts.sum() == tet.n_local - 1  # the vacancy dropped
        assert counts[0, :, NI].sum() == 1


class TestTernaryLattice:
    def test_counts_and_codes(self):
        lattice = _ternary_lattice()
        counts = lattice.species_counts()
        assert counts.shape == (4,)
        assert counts[NI] > 0 and counts[VAC3] > 0
        assert counts.sum() == lattice.n_sites
        assert np.array_equal(
            lattice.vacancy_ids, lattice.sites_of_species(VAC3)
        )

    def test_solute_code_validated(self):
        lattice = LatticeState((4, 4, 4), vacancy_code=VAC3)
        with pytest.raises(ValueError):
            lattice.randomize_multicomponent(
                np.random.default_rng(0), {VAC3: 0.1}, 0.01
            )


class TestTernaryEngine:
    def test_delta_matches_brute_force(self, ternary_setup):
        tet, potential = ternary_setup
        lattice = _ternary_lattice(seed=9)
        evaluator = VacancySystemEvaluator(tet, potential)
        vac = int(lattice.vacancy_ids[0])
        vet = lattice.occupancy[lattice.neighbor_ids(vac, tet.all_offsets)]
        energies = evaluator.evaluate(vet)

        def total_energy(state):
            ids = np.arange(state.n_sites)
            half = state.half_coords(ids)
            nb = state.ids_from_half(half[:, None, :] + tet.cet_offsets[None, :, :])
            counts = counts_from_types(
                state.occupancy[nb], tet.cet_shell, tet.n_shells, n_elements=3
            )
            return potential.region_energy(state.occupancy[ids], counts)

        before = total_energy(lattice)
        for direction in (0, 4):
            if not energies.valid[direction]:
                continue
            target = int(
                lattice.neighbor_ids(vac, tet.nn_offsets[direction][None, :])[0]
            )
            trial = lattice.copy()
            trial.swap(vac, target)
            assert energies.delta[direction] == pytest.approx(
                total_energy(trial) - before, abs=1e-8
            )

    def test_patched_encode_matches_full(self, ternary_setup):
        tet, potential = ternary_setup
        lattice = _ternary_lattice(seed=11)
        evaluator = VacancySystemEvaluator(tet, potential)
        vac = int(lattice.vacancy_ids[0])
        vet = lattice.occupancy[lattice.neighbor_ids(vac, tet.all_offsets)]
        full = evaluator.evaluate(vet)
        fast = evaluator.evaluate_batch(vet[None]).row(0)
        assert fast.initial == full.initial
        assert np.array_equal(fast.delta, full.delta)

    def test_engine_conserves_all_species(self, ternary_setup):
        tet, potential = ternary_setup
        lattice = _ternary_lattice(seed=13)
        before = lattice.species_counts().copy()
        engine = TensorKMCEngine(
            lattice, potential, tet, temperature=900.0,
            rng=np.random.default_rng(1), ea0=(0.65, 0.56, 0.68),
        )
        engine.run(n_steps=60)
        assert np.array_equal(lattice.species_counts(), before)

    def test_vacancy_code_mismatch_rejected(self, ternary_setup):
        tet, potential = ternary_setup
        binary_lattice = LatticeState((8, 8, 8))  # vacancy code 2
        binary_lattice.occupancy[0] = 2
        with pytest.raises(ValueError):
            TensorKMCEngine(binary_lattice, potential, tet)

    def test_ni_cosegrates_with_cu(self, ternary_setup):
        """Ni decorates Cu clusters under aging (the RPV phenomenology)."""
        tet, potential = ternary_setup
        lattice = LatticeState((12, 12, 12), vacancy_code=VAC3)
        rng = np.random.default_rng(21)
        lattice.randomize_multicomponent(
            rng, {CU: 0.03, NI: 0.02}, vacancy_fraction=0.0
        )
        ids = rng.choice(lattice.n_sites, 6, replace=False)
        lattice.occupancy[ids] = VAC3
        engine = TensorKMCEngine(
            lattice, potential, tet, temperature=600.0,
            rng=np.random.default_rng(2), ea0=(0.65, 0.56, 0.60),
        )
        alpha_before = warren_cowley(lattice, rcut=2.87, species=NI).get(0, 0.0)
        engine.run(n_steps=4000)
        alpha_after = warren_cowley(lattice, rcut=2.87, species=NI).get(0, 0.0)
        assert alpha_after > alpha_before  # Ni orders toward solute clusters
        assert len(find_clusters(lattice, species=CU)) > 0


class TestTernaryNNP:
    def test_trains_on_ternary_data(self, ternary_setup):
        tet, oracle = ternary_setup
        rng = np.random.default_rng(3)
        structures = generate_structures(
            oracle, rng, n_structures=16, cells=(2, 2, 2),
            solute_codes=(CU, NI),
        )
        assert any(np.any(s.species == NI) for s in structures)
        table = FeatureTable(tet.shell_distances)
        nets = ElementNetworks((3 * table.n_dim, 12, 1), rng, n_elements=3)
        model = NNPotential(table, nets, rcut=tet.rcut)
        assert model.n_elements == 3
        trainer = NNPTrainer(model, structures[:12])
        history = trainer.train(rng, n_epochs=30, lr=3e-3)
        assert history.epoch_loss[-1] < history.epoch_loss[0]

    def test_ternary_nnp_drives_engine(self, ternary_setup):
        tet, oracle = ternary_setup
        rng = np.random.default_rng(4)
        table = FeatureTable(tet.shell_distances)
        nets = ElementNetworks((3 * table.n_dim, 8, 1), rng, n_elements=3)
        model = NNPotential(table, nets, rcut=tet.rcut)
        model.set_standardisation(
            np.zeros(3 * table.n_dim), np.ones(3 * table.n_dim),
            np.array([-4.0, -3.5, -3.8]), 0.05,
        )
        lattice = _ternary_lattice(seed=31)
        before = lattice.species_counts().copy()
        engine = TensorKMCEngine(
            lattice, model, tet, temperature=900.0,
            rng=np.random.default_rng(5), ea0=(0.65, 0.56, 0.68),
        )
        engine.run(n_steps=25)
        assert np.array_equal(lattice.species_counts(), before)
