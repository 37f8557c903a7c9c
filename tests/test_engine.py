"""Serial AKMC engines: conservation laws, determinism, cache equivalence."""

import numpy as np
import pytest

from repro.baseline import OpenKMCEngine
from repro.constants import CU, FE, VACANCY
from repro.core import NoMovesError, TensorKMCEngine
from repro.lattice import LatticeState


def _make_lattice(seed=7, shape=(8, 8, 8), cu=0.05, vac=0.003):
    lattice = LatticeState(shape)
    lattice.randomize_alloy(np.random.default_rng(seed), cu, vac)
    return lattice


class TestBasicStepping:
    def test_time_strictly_increases(self, tet_small, eam_small):
        engine = TensorKMCEngine(
            _make_lattice(), eam_small, tet_small, rng=np.random.default_rng(1)
        )
        times = [engine.step().time for _ in range(20)]
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_species_conserved(self, tet_small, eam_small):
        lattice = _make_lattice()
        before = lattice.species_counts().copy()
        engine = TensorKMCEngine(
            lattice, eam_small, tet_small, rng=np.random.default_rng(2)
        )
        engine.run(n_steps=50)
        assert np.array_equal(lattice.species_counts(), before)

    def test_events_are_1nn_hops(self, tet_small, eam_small):
        lattice = _make_lattice()
        engine = TensorKMCEngine(
            lattice, eam_small, tet_small, rng=np.random.default_rng(3)
        )
        for _ in range(30):
            ev = engine.step()
            d = lattice.minimum_image_displacement(ev.from_site, ev.to_site)
            assert np.linalg.norm(d) == pytest.approx(
                lattice.a * np.sqrt(3) / 2
            )

    def test_vacancy_moves_to_target(self, tet_small, eam_small):
        lattice = _make_lattice()
        engine = TensorKMCEngine(
            lattice, eam_small, tet_small, rng=np.random.default_rng(4)
        )
        ev = engine.step()
        assert lattice.occupancy[ev.to_site] == VACANCY
        assert lattice.occupancy[ev.from_site] == ev.migrating_species
        assert ev.migrating_species in (FE, CU)

    def test_registry_tracks_vacancies(self, tet_small, eam_small):
        lattice = _make_lattice()
        engine = TensorKMCEngine(
            lattice, eam_small, tet_small, rng=np.random.default_rng(5)
        )
        engine.run(n_steps=40)
        assert sorted(engine.cache.sites) == sorted(int(s) for s in lattice.vacancy_ids)

    def test_run_until_time(self, tet_small, eam_small):
        engine = TensorKMCEngine(
            _make_lattice(), eam_small, tet_small,
            temperature=900.0, rng=np.random.default_rng(6),
        )
        engine.step()
        horizon = engine.time * 5
        engine.run(t_end=horizon, n_steps=10_000)
        assert engine.time >= horizon

    def test_run_requires_budget(self, tet_small, eam_small):
        engine = TensorKMCEngine(
            _make_lattice(), eam_small, tet_small, rng=np.random.default_rng(7)
        )
        with pytest.raises(ValueError):
            engine.run()

    def test_no_vacancies_rejected(self, tet_small, eam_small):
        lattice = LatticeState((4, 4, 4))
        with pytest.raises(ValueError):
            TensorKMCEngine(lattice, eam_small, tet_small)

    def test_callback_sees_every_event(self, tet_small, eam_small):
        engine = TensorKMCEngine(
            _make_lattice(), eam_small, tet_small, rng=np.random.default_rng(8)
        )
        seen = []
        engine.run(n_steps=15, callback=seen.append)
        assert len(seen) == 15
        assert [e.step for e in seen] == list(range(1, 16))


class TestDeterminism:
    def test_same_seed_same_trajectory(self, tet_small, eam_small):
        results = []
        for _ in range(2):
            lattice = _make_lattice(seed=11)
            engine = TensorKMCEngine(
                lattice, eam_small, tet_small, rng=np.random.default_rng(99)
            )
            engine.run(n_steps=40)
            results.append((lattice.occupancy.copy(), engine.time))
        assert np.array_equal(results[0][0], results[1][0])
        assert results[0][1] == results[1][1]

    def test_different_seeds_diverge(self, tet_small, eam_small):
        finals = []
        for seed in (1, 2):
            lattice = _make_lattice(seed=11)
            engine = TensorKMCEngine(
                lattice, eam_small, tet_small, rng=np.random.default_rng(seed)
            )
            engine.run(n_steps=40)
            finals.append(lattice.occupancy.copy())
        assert not np.array_equal(finals[0], finals[1])


class TestCacheEquivalence:
    """The Fig. 8 claim: cached TensorKMC == recompute-everything baseline."""

    @pytest.mark.parametrize("potential_fixture", ["eam_small", "nnp_small"])
    def test_identical_trajectories(self, request, tet_small, potential_fixture):
        potential = request.getfixturevalue(potential_fixture)
        lat_a = _make_lattice(seed=21)
        lat_b = lat_a.copy()
        fast = TensorKMCEngine(
            lat_a, potential, tet_small, rng=np.random.default_rng(5)
        )
        slow = OpenKMCEngine(
            lat_b, potential, tet_small, rng=np.random.default_rng(5),
            maintain_atom_arrays=False,
        )
        for _ in range(60):
            ev_f = fast.step()
            ev_s = slow.step()
            assert (ev_f.from_site, ev_f.to_site) == (ev_s.from_site, ev_s.to_site)
            assert ev_f.dt == ev_s.dt
        assert np.array_equal(lat_a.occupancy, lat_b.occupancy)

    def test_cache_actually_reuses(self, tet_small, eam_small):
        lattice = _make_lattice(seed=31, vac=0.004)
        engine = TensorKMCEngine(
            lattice, eam_small, tet_small, rng=np.random.default_rng(0)
        )
        engine.run(n_steps=50)
        assert engine.cache.stats.reuses > 0


class TestOpenKMCArrays:
    def test_atom_arrays_stay_consistent(self, tet_small, eam_small):
        lattice = _make_lattice(seed=51)
        engine = OpenKMCEngine(
            lattice, eam_small, tet_small, rng=np.random.default_rng(1),
            maintain_atom_arrays=True,
        )
        engine.run(n_steps=25)
        sites = np.arange(lattice.n_sites)
        direct = eam_small.energies_from_counts(
            lattice.occupancy[sites], engine._site_counts(sites)
        )
        stored = engine.atom_energy_from_arrays(sites)
        assert np.allclose(direct, stored, atol=1e-10)

    def test_nnp_feature_arrays_consistent(self, tet_small, nnp_small):
        lattice = _make_lattice(seed=52)
        engine = OpenKMCEngine(
            lattice, nnp_small, tet_small, rng=np.random.default_rng(2),
            maintain_atom_arrays=True,
        )
        engine.run(n_steps=10)
        sites = np.arange(lattice.n_sites)
        fresh = nnp_small.table.features_from_counts(engine._site_counts(sites))
        assert np.allclose(engine.features[sites], fresh, atol=1e-6)

    def test_T_array_tracks_occupancy(self, tet_small, eam_small):
        lattice = _make_lattice(seed=53)
        engine = OpenKMCEngine(
            lattice, eam_small, tet_small, rng=np.random.default_rng(3)
        )
        engine.run(n_steps=20)
        assert np.array_equal(engine.T, lattice.occupancy.astype(np.int32))

    def test_memory_report_keys(self, tet_small, eam_small, nnp_small):
        lattice = _make_lattice(seed=54)
        eam_engine = OpenKMCEngine(
            lattice.copy(), eam_small, tet_small, maintain_atom_arrays=False
        )
        assert {"T", "POS_ID", "E_V", "E_R"} <= set(eam_engine.memory_report())
        nnp_engine = OpenKMCEngine(
            lattice.copy(), nnp_small, tet_small, maintain_atom_arrays=False
        )
        assert "features" in nnp_engine.memory_report()


class TestFrozenSystem:
    def test_no_moves_raises(self, tet_small, eam_small):
        """A fully-vacant lattice has no valid hops: NoMovesError."""
        tiny = LatticeState((3, 3, 3))
        tiny.occupancy[:] = VACANCY
        frozen = TensorKMCEngine(
            tiny, eam_small, tet_small, rng=np.random.default_rng(0)
        )
        with pytest.raises(NoMovesError):
            frozen.step()
