"""Warren-Cowley short-range order parameter."""

import numpy as np
import pytest

from repro.analysis import warren_cowley
from repro.constants import CU, FE, VACANCY
from repro.core import TensorKMCEngine
from repro.lattice import LatticeState


class TestWarrenCowley:
    def test_random_solution_is_near_zero(self):
        lattice = LatticeState((10, 10, 10))
        rng = np.random.default_rng(0)
        lattice.occupancy[:] = np.where(rng.random(lattice.n_sites) < 0.2, CU, FE)
        alphas = warren_cowley(lattice, rcut=2.87)
        for alpha in alphas.values():
            assert abs(alpha) < 0.05

    def test_fully_clustered_is_positive(self):
        """A compact Cu block has strongly positive 1NN alpha."""
        lattice = LatticeState((8, 8, 8))
        lattice.occupancy[:] = FE
        for s in range(2):
            for i in range(3):
                for j in range(3):
                    for k in range(3):
                        lattice.occupancy[lattice.site_id(s, i, j, k)] = CU
        alphas = warren_cowley(lattice, rcut=2.87)
        assert alphas[0] > 0.5

    def test_pure_solute_gives_zero(self):
        lattice = LatticeState((4, 4, 4))
        lattice.occupancy[:] = CU
        alphas = warren_cowley(lattice, rcut=2.87)
        assert all(a == 0.0 for a in alphas.values())

    def test_no_solute_empty(self):
        lattice = LatticeState((4, 4, 4))
        assert warren_cowley(lattice, rcut=2.87) == {}

    def test_vacancies_excluded(self):
        """Alpha is unchanged when solvent sites are replaced by vacancies."""
        lattice = LatticeState((8, 8, 8))
        lattice.occupancy[:] = FE
        lattice.occupancy[lattice.site_id(0, 4, 4, 4)] = CU
        base = warren_cowley(lattice, rcut=2.87)
        # isolated Cu: p_same = 0 -> alpha = -c/(1-c), tiny negative
        assert base[0] < 0.0
        assert base[0] == pytest.approx(-1 / 1023, rel=1e-6)

    def test_aging_increases_sro(self, tet_small, eam_small):
        """Thermal aging drives Cu clustering: alpha_1NN grows."""
        lattice = LatticeState((12, 12, 12))
        rng = np.random.default_rng(12)
        lattice.randomize_alloy(rng, cu_fraction=0.0134, vacancy_fraction=0.0)
        ids = rng.choice(lattice.n_sites, 5, replace=False)
        lattice.occupancy[ids] = VACANCY
        before = warren_cowley(lattice, rcut=2.87).get(0, 0.0)
        engine = TensorKMCEngine(
            lattice, eam_small, tet_small, temperature=600.0,
            rng=np.random.default_rng(1),
        )
        engine.run(n_steps=5000)
        after = warren_cowley(lattice, rcut=2.87).get(0, 0.0)
        assert after > before + 0.005
        assert after > 0.0
