"""Batched big-fusion rate evaluation vs the scalar path.

The contract under test (paper Sec. 3.4/3.5 applied to rate evaluation):
batching cache misses through ``evaluate_batch`` / ``rates_batch`` changes
throughput, never physics.  Every per-row quantity must be *bit-identical*
to the scalar path — for counts-tabulated potentials because each row is an
independent exact reduction, and for the NNP because its inference runs
through the deterministic tiled-GEMM kernel (fixed call shapes, fixed
accumulation order), which is what lets the engines take the batched miss
path for NNP campaigns too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baseline.openkmc import OpenKMCEngine
from repro.core.engine import TensorKMCEngine
from repro.core.vacancy_system import VacancySystemEvaluator
from repro.lattice import LatticeState
from repro.parallel.engine import SublatticeKMC

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is in the dev env
    HAVE_HYPOTHESIS = False


def _random_vets(evaluator, n, seed=0, vacancy_neighbors=False):
    """Random VET batch with vacancy centres (and optional vacancy 1NNs)."""
    rng = np.random.default_rng(seed)
    n_all = evaluator.tet.n_all
    vets = rng.integers(0, evaluator.n_elements, size=(n, n_all))
    vets[:, 0] = evaluator.vacancy_code
    if vacancy_neighbors:
        vets[:, 1:9] = evaluator.vacancy_code
    return vets


def _lattice_vets(lattice, tet):
    """The VETs of every vacancy in a lattice, in sorted-site order."""
    sites = sorted(int(s) for s in lattice.vacancy_ids)
    return np.stack(
        [lattice.occupancy[lattice.neighbor_ids(s, tet.all_offsets)] for s in sites]
    )


def _make_lattice(seed, shape=(6, 6, 6), vac=0.01):
    lattice = LatticeState(shape)
    lattice.randomize_alloy(
        np.random.default_rng(seed), cu_fraction=0.05, vacancy_fraction=vac
    )
    return lattice


class TestTrialVetsBatch:
    def test_matches_scalar_rows(self, tet_small, eam_small):
        ev = VacancySystemEvaluator(tet_small, eam_small)
        vets = _random_vets(ev, 7, seed=3)
        batch = ev.trial_vets_batch(vets)
        assert batch.shape == (7, 9, tet_small.n_all)
        for b in range(7):
            assert np.array_equal(batch[b], ev.trial_vets(vets[b]))

    def test_rejects_bad_shapes(self, tet_small, eam_small):
        ev = VacancySystemEvaluator(tet_small, eam_small)
        with pytest.raises(ValueError):
            ev.trial_vets_batch(np.zeros(tet_small.n_all, dtype=np.int64))
        with pytest.raises(ValueError):
            ev.trial_vets_batch(np.zeros((3, tet_small.n_all + 1), dtype=np.int64))


class TestEvaluateBatch:
    def test_eam_bitwise_equal_to_scalar(self, tet_small, eam_small):
        """Counts-tabulated potentials: per-row results are bit-identical."""
        ev = VacancySystemEvaluator(tet_small, eam_small)
        vets = _lattice_vets(_make_lattice(21), tet_small)
        batch = ev.evaluate_batch(vets)
        assert len(batch) == vets.shape[0]
        for b, scalar in enumerate(ev.evaluate(v) for v in vets):
            row = batch.row(b)
            assert row.initial == scalar.initial
            assert np.array_equal(row.delta, scalar.delta)
            assert np.array_equal(row.valid, scalar.valid)
            assert np.array_equal(row.migrating_species, scalar.migrating_species)

    def test_nnp_bitwise_equal_to_scalar(self, tet_small, nnp_small):
        """The tiled kernel makes NNP rows batch-independent — bit-exact."""
        ev = VacancySystemEvaluator(tet_small, nnp_small)
        vets = _random_vets(ev, 6, seed=5)
        batch = ev.evaluate_batch(vets)
        for b in range(6):
            scalar = ev.evaluate(vets[b])
            row = batch.row(b)
            assert row.initial == scalar.initial
            assert np.array_equal(row.delta, scalar.delta)
            assert np.array_equal(row.valid, scalar.valid)

    def test_nnp_single_row_batch_is_bitwise(self, tet_small, nnp_small):
        """B=1 reproduces the scalar GEMM shapes exactly."""
        ev = VacancySystemEvaluator(tet_small, nnp_small)
        vet = _random_vets(ev, 1, seed=9)
        row = ev.evaluate_batch(vet).row(0)
        scalar = ev.evaluate(vet[0])
        assert row.initial == scalar.initial
        assert np.array_equal(row.delta, scalar.delta)

    def test_all_vacancy_neighbours(self, tet_small, eam_small):
        """A vacancy with only vacancy 1NNs has no executable hop."""
        ev = VacancySystemEvaluator(tet_small, eam_small)
        vets = _random_vets(ev, 3, seed=1, vacancy_neighbors=True)
        batch = ev.evaluate_batch(vets)
        assert not batch.valid.any()
        assert np.all(batch.delta == 0.0)

    def test_empty_batch(self, tet_small, eam_small):
        ev = VacancySystemEvaluator(tet_small, eam_small)
        batch = ev.evaluate_batch(
            np.zeros((0, tet_small.n_all), dtype=np.int64)
        )
        assert len(batch) == 0
        assert batch.delta.shape == (0, 8)
        assert batch.initial.shape == (0,)

    def test_rejects_non_vacancy_centre(self, tet_small, eam_small):
        ev = VacancySystemEvaluator(tet_small, eam_small)
        vets = _random_vets(ev, 2, seed=2)
        vets[1, 0] = 0  # an atom where the vacancy must be
        with pytest.raises(ValueError, match="centre"):
            ev.evaluate_batch(vets)

    def test_rejects_bad_shape(self, tet_small, eam_small):
        ev = VacancySystemEvaluator(tet_small, eam_small)
        with pytest.raises(ValueError, match="shape"):
            ev.evaluate_batch(np.zeros((2, 3), dtype=np.int64))


class TestEvaluateBatchSegments:
    @pytest.mark.parametrize("pot", ["eam_small", "nnp_small"])
    def test_rows_form_matches_each_segment_alone(self, request, tet_small, pot):
        """One fused call over many callers' ``(vets, pair_b, pair_r)``
        worklists returns, per caller, the bits of its own call —
        empty segments (no VETs, or VETs without pairs) included."""
        ev = VacancySystemEvaluator(tet_small, request.getfixturevalue(pot))
        n_region = tet_small.n_region
        rng = np.random.default_rng(4)
        segments = []
        for i, (n_vets, n_pairs) in enumerate(
            [(3, 40), (0, 0), (2, 2 * n_region), (4, 0), (1, 7)]
        ):
            vets = _random_vets(ev, n_vets, seed=10 + i)
            pair_b = rng.integers(0, max(n_vets, 1), size=n_pairs)
            pair_r = rng.integers(0, n_region, size=n_pairs)
            segments.append((vets, pair_b, pair_r))
        fused = ev.evaluate_batch_segments(segments)
        assert len(fused) == len(segments)
        for (vets, pair_b, pair_r), rows in zip(segments, fused):
            alone = ev.evaluate_rows(vets, pair_b, pair_r)
            assert rows.shape == (len(pair_b), 9)
            if len(pair_b):
                assert rows.dtype == alone.dtype
            assert np.array_equal(rows, alone)
        assert ev.evaluate_batch_segments([]) == []


class TestRatesBatch:
    def test_bitwise_equal_to_scalar_rows(self, tet_small, eam_small, rate_model):
        ev = VacancySystemEvaluator(tet_small, eam_small)
        vets = _lattice_vets(_make_lattice(33), tet_small)
        batch = ev.evaluate_batch(vets)
        rates = rate_model.rates_batch(batch)
        assert rates.shape == (len(batch), 8)
        for b in range(len(batch)):
            assert np.array_equal(rates[b], rate_model.rates(batch.row(b)))

    def test_migration_energies_batch(self, tet_small, eam_small, rate_model):
        ev = VacancySystemEvaluator(tet_small, eam_small)
        vets = _random_vets(ev, 4, seed=8)
        batch = ev.evaluate_batch(vets)
        ea = rate_model.migration_energies_batch(batch)
        for b in range(4):
            assert np.array_equal(
                ea[b], rate_model.migration_energies(batch.row(b))
            )

    def test_invalid_rows_rate_zero(self, tet_small, eam_small, rate_model):
        ev = VacancySystemEvaluator(tet_small, eam_small)
        vets = _random_vets(ev, 2, seed=4, vacancy_neighbors=True)
        rates = rate_model.rates_batch(ev.evaluate_batch(vets))
        assert np.all(rates == 0.0)


@pytest.fixture()
def rate_model():
    from repro.core.rates import RateModel

    return RateModel(600.0)


class TestEngineBatching:
    def test_batches_eam_and_counts(self, tet_small, eam_small):
        lattice = _make_lattice(7)
        engine = TensorKMCEngine(
            lattice, eam_small, tet_small, rng=np.random.default_rng(0)
        )
        engine.run(n_steps=15)
        summary = engine.summary()
        assert summary["rate_batches"] >= 1
        assert summary["batched_rows"] == summary["cache_misses"]
        assert summary["max_batch_size"] >= summary["mean_batch_size"] > 0.0

    def test_batches_nnp(self, tet_small, nnp_small):
        """The tiled kernel makes the NNP row-invariant -> it batches."""
        assert nnp_small.batch_row_invariant is True
        lattice = _make_lattice(7)
        engine = TensorKMCEngine(
            lattice, nnp_small, tet_small, rng=np.random.default_rng(0)
        )
        engine.run(n_steps=5)
        assert engine.summary()["rate_batches"] >= 1

    def test_uncached_baseline_batches_whole_population(self, tet_small, eam_small):
        """OpenKMC rebuilds everything per step -> batch == population."""
        lattice = _make_lattice(7)
        engine = OpenKMCEngine(
            lattice, eam_small, tet_small,
            rng=np.random.default_rng(0), maintain_atom_arrays=False,
        )
        engine.run(n_steps=3)
        summary = engine.summary()
        assert summary["max_batch_size"] == engine.kernel.cache.n_live


class TestParallelBatching:
    def test_sublattice_counters_and_summary(self, tet_small, eam_small):
        lattice = _make_lattice(11, shape=(16, 8, 8), vac=0.01)
        sim = SublatticeKMC(
            lattice, eam_small, tet_small,
            n_ranks=2, temperature=1200.0, t_stop=2e-7, seed=3,
        )
        stats = sim.run(4)
        summary = sim.summary()
        assert summary["rate_batches"] >= 1
        assert summary["batched_rows"] >= summary["rate_batches"]
        assert summary["max_batch_size"] >= summary["mean_batch_size"] > 0.0
        assert sum(s.rate_batches for s in stats) == summary["rate_batches"]
        assert sum(s.batched_rows for s in stats) == summary["batched_rows"]


class TestFusedNNPCounts:
    def test_energies_from_counts_fused_matches_plain(self, tet_small, nnp_small):
        from repro.sunway import SW26010_PRO, CostLedger

        rng = np.random.default_rng(6)
        types = rng.integers(0, 3, size=64)
        counts = rng.integers(
            0, 5, size=(64, tet_small.n_shells, 2)
        ).astype(np.float32)
        ledger = CostLedger(SW26010_PRO)
        fused = nnp_small.energies_from_counts_fused(types, counts, ledger=ledger)
        plain = nnp_small.energies_from_counts(types, counts)
        # One deterministic tiled kernel behind both entry points: bit-exact.
        assert np.array_equal(fused, plain)
        assert ledger.simd_flops > 0 and ledger.dma_bytes > 0
        # Vacancy centres stay exactly zero through the fused path too.
        assert np.all(fused[types == nnp_small.vacancy_code] == 0.0)


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestFuzzBatchedAgreement:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=12),
        vac_frac=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_random_batches_match_scalar(self, tet_small, eam_small, seed, n, vac_frac):
        """Random VET batches (incl. vacancy-rich shells) agree bitwise."""
        ev = VacancySystemEvaluator(tet_small, eam_small)
        rng = np.random.default_rng(seed)
        vets = rng.integers(
            0, ev.n_elements + 1, size=(n, tet_small.n_all)
        )
        # Sprinkle extra vacancies so all-vacancy shells actually occur.
        extra = rng.random(vets.shape) < vac_frac
        vets[extra] = ev.vacancy_code
        vets[:, 0] = ev.vacancy_code
        batch = ev.evaluate_batch(vets)
        for b in range(n):
            scalar = ev.evaluate(vets[b])
            row = batch.row(b)
            assert row.initial == scalar.initial
            assert np.array_equal(row.delta, scalar.delta)
            assert np.array_equal(row.valid, scalar.valid)
            assert np.array_equal(row.migrating_species, scalar.migrating_species)
