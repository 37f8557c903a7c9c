"""Physical validation: vacancy diffusion against the analytic result."""

import numpy as np
import pytest

from repro.analysis import (
    DisplacementTracker,
    analytic_vacancy_diffusivity,
    cluster_sizes,
    find_clusters,
    measure_vacancy_diffusivity,
)
from repro.constants import EA0_FE, KB_EV, VACANCY
from repro.core import TensorKMCEngine
from repro.lattice import LatticeState


def _single_vacancy_engine(tet, pot, temperature, seed):
    lattice = LatticeState((8, 8, 8))
    lattice.occupancy[lattice.site_id(0, 4, 4, 4)] = VACANCY
    return TensorKMCEngine(
        lattice, pot, tet, temperature=temperature,
        rng=np.random.default_rng(seed),
    )


class TestAnalytic:
    def test_arrhenius_form(self):
        d1 = analytic_vacancy_diffusivity(600.0, 2.87, EA0_FE)
        d2 = analytic_vacancy_diffusivity(1200.0, 2.87, EA0_FE)
        expected = np.exp(-EA0_FE / KB_EV * (1 / 1200 - 1 / 600))
        assert d2 / d1 == pytest.approx(expected)

    def test_scales_with_hop_length_squared(self):
        d1 = analytic_vacancy_diffusivity(800.0, 2.87, EA0_FE)
        d2 = analytic_vacancy_diffusivity(800.0, 2 * 2.87, EA0_FE)
        assert d2 / d1 == pytest.approx(4.0)


class TestMeasured:
    def test_single_walker_matches_analytic_on_average(self, tet_small, eam_small):
        """Ensemble-averaged MSD slope reproduces the analytic D.

        A single random-walk trajectory's |R|^2 fluctuates with O(1) relative
        variance, so several independent walkers are averaged.
        """
        temperature = 800.0
        measured = []
        for seed in range(12):
            engine = _single_vacancy_engine(tet_small, eam_small, temperature, seed)
            measured.append(
                measure_vacancy_diffusivity(engine, n_steps=600)["D"]
            )
        d_measured = float(np.mean(measured))
        d_analytic = analytic_vacancy_diffusivity(temperature, 2.87, EA0_FE)
        assert d_measured == pytest.approx(d_analytic, rel=0.5)

    def test_tracker_counts_every_hop(self, tet_small, eam_small):
        engine = _single_vacancy_engine(tet_small, eam_small, 800.0, 3)
        tracker = DisplacementTracker(engine)
        engine.run(n_steps=50, callback=tracker)
        assert tracker.hops == 50
        assert len(tracker.times) == 51
        # every hop adds exactly one 1NN step length to the path
        path_steps = np.linalg.norm(tracker.displacements[0])
        assert path_steps <= 50 * 2.87 * np.sqrt(3) / 2 + 1e-9

    def test_msd_monotone_nondecreasing_in_hops(self, tet_small, eam_small):
        engine = _single_vacancy_engine(tet_small, eam_small, 800.0, 4)
        tracker = DisplacementTracker(engine)
        engine.run(n_steps=30, callback=tracker)
        # MSD can fluctuate, but must stay non-negative and start at zero.
        assert tracker.msd[0] == 0.0
        assert min(tracker.msd) >= 0.0

    def test_diffusivity_requires_trajectory(self, tet_small, eam_small):
        engine = _single_vacancy_engine(tet_small, eam_small, 800.0, 5)
        tracker = DisplacementTracker(engine)
        with pytest.raises(ValueError):
            tracker.diffusivity()


class TestVoidFormation:
    def test_vacancies_aggregate_into_voids(self, tet_small, eam_small):
        """Many vacancies cluster (void nucleation, paper Fig. 14)."""
        lattice = LatticeState((16, 16, 16))
        rng = np.random.default_rng(0)
        ids = rng.choice(lattice.n_sites, 40, replace=False)
        lattice.occupancy[ids] = VACANCY
        engine = TensorKMCEngine(
            lattice, eam_small, tet_small, temperature=800.0,
            rng=np.random.default_rng(9),
        )
        engine.run(n_steps=4000)
        sizes = cluster_sizes(find_clusters(lattice, species=VACANCY))
        assert sizes[0] >= 4  # a void has nucleated
        assert sizes.sum() == 40  # no vacancy lost
