"""Incremental (delta) rebuild path: snapshots stay equal to fresh gathers.

The delta path is only admissible because it changes *work*, not results:
patched VET snapshots must stay bitwise-equal to a from-scratch gather
of the occupancy at the key plus the TET offsets after arbitrary hop
sequences (periodic wrap included), re-rated dirty rows spliced into cached row energies must equal
a from-scratch re-rate of every row, and every mutation that carries no
changed-site payload must drop the snapshots it can no longer keep in sync.
That the resulting trajectories equal the full rebuild's is pinned by the
golden digests in ``tests/test_mode_matrix.py``.  Also holds the store-batch
and phase-profiler checks of the event hot path.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import TensorKMCEngine
from repro.core.profiling import PHASES, PhaseProfiler
from repro.core.vacancy_cache import VacancyCache
from repro.lattice.occupancy import LatticeState
from repro.parallel.engine import SublatticeKMC


def _alloy(shape, seed, vac=0.01):
    lattice = LatticeState(shape)
    lattice.randomize_alloy(
        np.random.default_rng(seed), cu_fraction=0.05, vacancy_fraction=vac
    )
    return lattice


def _serial_engine(tet, potential, seed=11):
    return TensorKMCEngine(
        _alloy((6, 6, 6), seed), potential, tet,
        rng=np.random.default_rng(seed + 1),
    )


def _assert_snapshots_match_gather(kernel, sites, vet_of_key):
    """Every live snapshot must equal a from-scratch re-gather, bit for bit:
    the site store's and ``vet_of_key``'s, written out here."""
    cache = kernel.cache
    n = cache.n_slots
    slots = np.flatnonzero(cache.live[:n] & cache.delta_ready[:n])
    for slot in slots.tolist():
        key = kernel.key_of(slot)
        assert np.array_equal(cache.vets[slot], vet_of_key(key))
        assert np.array_equal(cache.vets[slot], sites.gather([key])[0])
    return slots


class TestSnapshotIntegrity:
    """Fuzz: stored deltas equal from-scratch gathers after random hops."""

    @given(
        cfg=st.fixed_dictionaries(
            {
                "seed": st.integers(min_value=0, max_value=2**31),
                "engine_seed": st.integers(min_value=0, max_value=2**31),
                "n_steps": st.integers(min_value=0, max_value=40),
            }
        )
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_patched_snapshots_equal_from_scratch_gather(
        self, tet_small, eam_small, cfg
    ):
        lattice = _alloy((6, 6, 6), cfg["seed"])
        engine = TensorKMCEngine(
            lattice,
            eam_small,
            tet_small,
            rng=np.random.default_rng(cfg["engine_seed"]),
        )
        engine.run(n_steps=cfg["n_steps"])
        cache = engine.kernel.cache
        # The (6,6,6) box is only 12 half-units wide, so VET windows wrap
        # constantly — lattice.ids_from_half's periodic fold is on the line.
        offsets = tet_small.all_offsets
        slots = _assert_snapshots_match_gather(
            engine.kernel,
            engine.sites,
            lambda key: lattice.occupancy[
                lattice.ids_from_half(lattice.half_of(key) + offsets)
            ],
        )
        if cfg["n_steps"] > 0:
            assert slots.size > 0  # the delta path actually engaged
        # Fresh snapshot slots were refreshed after their last patch: no
        # pending dirty rows, and their cached row energies must equal a
        # from-scratch re-rate of every row.
        n = cache.n_slots
        fresh = np.flatnonzero(
            cache.live[:n] & cache.fresh[:n] & cache.delta_ready[:n]
        )
        if fresh.size:
            assert not cache.dirty_rows[fresh].any()
            n_region = tet_small.n_region
            pair_b = np.repeat(np.arange(fresh.size), n_region)
            pair_r = np.tile(np.arange(n_region, dtype=np.intp), fresh.size)
            rows = engine.evaluator.evaluate_rows(
                cache.vets[fresh], pair_b, pair_r
            )
            expect = np.empty_like(cache.row_energies[fresh])
            expect[pair_b, :, pair_r] = rows
            assert np.array_equal(expect, cache.row_energies[fresh])

    def test_rank_snapshots_equal_window_gather(self, tet_small, eam_small):
        """Rank snapshots match a from-scratch window gather — this also
        exercises the parked/recycled-slot path, because the post-cycle
        rescan parks every vacancy that left the rank's box."""
        sim = SublatticeKMC(
            _alloy((8, 8, 16), 3), eam_small, tet_small, n_ranks=2,
            temperature=1100.0, t_stop=4e-9, seed=3,
        )
        sim.run(6)
        assert sim.total_events > 0
        offsets = tet_small.all_offsets
        for rank in sim.ranks:
            _assert_snapshots_match_gather(
                rank.kernel,
                rank.sites,
                lambda key: rank.window.species_at_half(
                    np.asarray(key) + offsets
                ),
            )


class TestForcedFullFallbacks:
    """Every payload-free mutation must drop the affected snapshots."""

    @pytest.fixture()
    def warm(self, tet_small, eam_small):
        engine = _serial_engine(tet_small, eam_small)
        engine.run(n_steps=10)
        cache = engine.kernel.cache
        ready = np.flatnonzero(cache.live & cache.delta_ready)
        assert ready.size >= 3
        return engine, cache, ready

    def test_move_drops_the_mover(self, warm):
        _, cache, ready = warm
        slot = int(ready[0])
        cache.move(slot, (10**9,))  # synthetic unused key
        assert not cache.delta_ready[slot]

    def test_remove_and_payload_free_invalidation_drop(self, warm):
        _, cache, ready = warm
        cache.remove_slot(int(ready[0]))
        cache.invalidate_slots(ready[1:3])
        assert not cache.delta_ready[ready[:3]].any()

    def test_invalidate_all_drops_everything(self, warm):
        engine, cache, _ = warm
        cache.invalidate_all()
        assert not cache.delta_ready.any()
        engine.run(n_steps=2)
        assert cache.delta_ready.any()
        engine.kernel.invalidate_all()
        assert not cache.delta_ready.any()


class TestStoreBatchEquivalence:
    def test_store_rates_matches_per_slot_store(self):
        keys = [(i, 0, 0) for i in range(5)]
        batch = VacancyCache(keys)
        scalar = VacancyCache(keys)
        rng = np.random.default_rng(2)
        rows = rng.uniform(0.0, 3.0, size=(5, 8))
        batch.store_rates(np.arange(5), rows)
        for slot in range(5):
            scalar.store_rates(np.array([slot]), rows[slot:slot + 1])
        assert np.array_equal(batch.rates[:5], scalar.rates[:5])
        assert np.array_equal(batch.total_rates[:5], scalar.total_rates[:5])
        assert not batch.stale_mask()[:5].any()
        assert not scalar.stale_mask()[:5].any()


class TestPhaseProfiler:
    def test_profiler_accumulates_and_resets(self):
        prof = PhaseProfiler()
        with prof.phase("select"):
            pass
        with prof.phase("select"):
            pass
        assert prof.calls["select"] == 2
        assert prof.seconds["select"] >= 0.0
        assert "select_seconds" in prof.summary()
        prof.reset()
        # Reset zeroes in place: cached timers keep their dict slots.
        assert all(v == 0.0 for v in prof.seconds.values())
        assert all(v == 0 for v in prof.calls.values())

    def test_serial_summary_has_phase_seconds(self, tet_small, eam_small):
        engine = _serial_engine(tet_small, eam_small, seed=1)
        engine.run(n_steps=5)
        summary = engine.summary()
        for name in ("rebuild", "select", "hop", "invalidate"):
            assert summary[f"{name}_seconds"] > 0.0

    def test_parallel_cycle_stats_and_checkpoint_round_trip(
        self, tmp_path, tet_small, eam_small
    ):
        from repro.io.checkpoint import (
            load_parallel_checkpoint,
            save_parallel_checkpoint,
        )

        sim = SublatticeKMC(
            _alloy((8, 8, 16), 7), eam_small, tet_small, n_ranks=2,
            temperature=1100.0, t_stop=4e-9, seed=7,
        )
        sim.run(4)
        assert sum(c.rebuild_seconds for c in sim.cycles) > 0.0
        assert sum(c.exchange_seconds for c in sim.cycles) > 0.0
        summary = sim.summary()
        for name in PHASES:
            assert f"{name}_seconds" in summary

        path = tmp_path / "phases.npz"
        save_parallel_checkpoint(str(path), sim)
        resumed = load_parallel_checkpoint(str(path), eam_small, tet=tet_small)
        # CycleStats equality covers every field, the float64 phase seconds
        # included — the archive must round-trip them bit-exactly.
        assert resumed.cycles == sim.cycles
