"""Property-based engine tests: invariants under randomised configurations."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import CU, FE, VACANCY
from repro.core import TensorKMCEngine
from repro.core.vacancy_system import VacancySystemEvaluator
from repro.lattice import LatticeState
from repro.potentials import counts_from_types

config = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=2**31),
        "cu": st.floats(min_value=0.0, max_value=0.3),
        "n_vac": st.integers(min_value=1, max_value=6),
        "engine_seed": st.integers(min_value=0, max_value=2**31),
    }
)


def _build(tet, pot, cfg, shape=(8, 8, 8)):
    lattice = LatticeState(shape)
    rng = np.random.default_rng(cfg["seed"])
    lattice.occupancy[:] = np.where(
        rng.random(lattice.n_sites) < cfg["cu"], CU, FE
    )
    ids = rng.choice(lattice.n_sites, cfg["n_vac"], replace=False)
    lattice.occupancy[ids] = VACANCY
    engine = TensorKMCEngine(
        lattice, pot, tet, temperature=900.0,
        rng=np.random.default_rng(cfg["engine_seed"]),
    )
    return lattice, engine


class TestEngineInvariants:
    @given(cfg=config)
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_conservation_and_registry(self, tet_small, eam_small, cfg):
        lattice, engine = _build(tet_small, eam_small, cfg)
        before = lattice.species_counts().copy()
        engine.run(n_steps=20)
        assert np.array_equal(lattice.species_counts(), before)
        assert sorted(engine.cache.sites) == sorted(
            int(s) for s in lattice.vacancy_ids
        )
        assert engine.time > 0

    @given(cfg=config)
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_store_total_equals_sum_of_entries(self, tet_small, eam_small, cfg):
        _, engine = _build(tet_small, eam_small, cfg)
        engine.run(n_steps=10)
        engine.kernel.refresh()
        cache = engine.cache
        assert cache.fresh[: cache.n_slots].all()
        expected = sum(cache.total_rates[: cache.n_slots].tolist())
        assert engine.store.total == pytest.approx(expected, rel=1e-12)

    @given(cfg=config)
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_cached_rates_match_fresh_rebuild(self, tet_small, eam_small, cfg):
        """Every live cache entry equals a from-scratch rebuild."""
        _, engine = _build(tet_small, eam_small, cfg)
        engine.run(n_steps=15)
        engine.kernel.refresh()
        cache = engine.cache
        for slot in range(cache.n_slots):
            assert cache.fresh[slot]
            vet, rates = engine.build_system(slot)
            assert np.array_equal(cache.rates[slot], rates)
            assert np.array_equal(cache.vets[slot], vet)


class TestEvaluatorProperties:
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        cu=st.floats(min_value=0.0, max_value=0.4),
    )
    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_delta_path_always_matches_full(self, tet_small, eam_small, seed, cu):
        lattice = LatticeState((8, 8, 8))
        rng = np.random.default_rng(seed)
        lattice.occupancy[:] = np.where(rng.random(lattice.n_sites) < cu, CU, FE)
        vac = int(rng.integers(0, lattice.n_sites))
        lattice.occupancy[vac] = VACANCY
        evaluator = VacancySystemEvaluator(tet_small, eam_small)
        vet = lattice.occupancy[lattice.neighbor_ids(vac, tet_small.all_offsets)]
        full = evaluator.evaluate(vet)
        fast = evaluator.evaluate_batch(vet[None]).row(0)
        assert fast.initial == full.initial
        assert np.array_equal(fast.delta, full.delta)
        assert np.array_equal(fast.valid, full.valid)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(
        max_examples=10, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_region_delta_equals_brute_force(self, tet_small, eam_small, seed):
        """Randomised version of the central triple-encoding claim."""
        lattice = LatticeState((8, 8, 8))
        rng = np.random.default_rng(seed)
        lattice.occupancy[:] = np.where(
            rng.random(lattice.n_sites) < 0.15, CU, FE
        )
        vac = int(rng.integers(0, lattice.n_sites))
        lattice.occupancy[vac] = VACANCY
        evaluator = VacancySystemEvaluator(tet_small, eam_small)
        vet = lattice.occupancy[lattice.neighbor_ids(vac, tet_small.all_offsets)]
        energies = evaluator.evaluate(vet)
        direction = int(rng.integers(0, 8))
        if not energies.valid[direction]:
            return
        target = int(
            lattice.neighbor_ids(vac, tet_small.nn_offsets[direction][None, :])[0]
        )

        def total_energy(state):
            ids = np.arange(state.n_sites)
            half = state.half_coords(ids)
            nb = state.ids_from_half(
                half[:, None, :] + tet_small.cet_offsets[None, :, :]
            )
            counts = counts_from_types(
                state.occupancy[nb], tet_small.cet_shell, tet_small.n_shells
            )
            return eam_small.region_energy(state.occupancy[ids], counts)

        before = total_energy(lattice)
        trial = lattice.copy()
        trial.swap(vac, target)
        after = total_energy(trial)
        assert energies.delta[direction] == pytest.approx(
            after - before, abs=1e-8
        )
