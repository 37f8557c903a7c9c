"""Persistent row-energy cache: unit behaviour and bit-exact trajectories.

The :class:`~repro.core.rowcache.RowEnergyCache` memoizes unique-row
energies across batches under the same ``batch_row_invariant`` contract
that licenses in-batch dedup, so the observable guarantee is absolute:
every fixed-seed trajectory (serial, parallel, campaign, resumed from a
checkpoint) is bit-identical with the cache attached and detached —
including when a tiny byte budget forces constant evict/re-insert cycling.  The additive
64-bit row key is only an address: dedup and the cache both check the row
itself, so the tests below force key collisions and require the exact
energies anyway, and fuzz that grouping by key recovers the true distinct
rows for any row width.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baseline.memory_model import tensorkmc_memory_model
from repro.campaign import ReplicaCampaign, ReplicaSpec, occupancy_digest
from repro.core import rowcache
from repro.core.engine import TensorKMCEngine
from repro.core.rowcache import (
    ROW_CACHE_BYTES,
    RowEnergyCache,
    resolve_row_cache,
    row_dtype,
    row_entry_bytes,
    row_keys,
    stored_rows,
)
from repro.core.vacancy_system import VacancySystemEvaluator
from repro.io import (
    load_checkpoint,
    load_parallel_checkpoint,
    save_checkpoint,
    save_parallel_checkpoint,
)
from repro.lattice import LatticeState
from repro.parallel import SublatticeKMC


def _entries(*ids):
    """Keys and distinct one-byte rows ``[i, i + 1, i + 2]`` (2 channels)."""
    rows = np.array([[i, i + 1, i + 2] for i in ids], dtype=np.uint8)
    return row_keys(rows[:, 0], rows[:, 1:]), rows


#: Bytes of one :func:`_entries` row's cache entry.
ENTRY = row_entry_bytes(2, 1)


# ---------------------------------------------------------------------------
# Unit behaviour
# ---------------------------------------------------------------------------


class TestRowEnergyCacheUnit:
    def test_roundtrip_is_bit_exact(self):
        cache = RowEnergyCache()
        for dtype in (np.float32, np.float64):
            cache.clear()
            keys, rows = _entries(3, 7, 11)
            values = np.array(
                [0.1, -4.000000001, np.pi], dtype=dtype
            )
            cache.insert(keys, rows, values)
            found, got = cache.lookup(keys, rows)
            assert found.all()
            assert got.dtype == values.dtype
            # Bit-exact through the slab, not just close.
            assert np.array_equal(
                got.view(np.uint8), values.view(np.uint8)
            )

    def test_lookup_counts_hits_and_misses(self):
        cache = RowEnergyCache()
        keys, rows = _entries(1, 2, 3)
        cache.insert(keys[:2], rows[:2], np.array([0.5, 1.5]))
        found, _ = cache.lookup(keys, rows)
        assert found.tolist() == [True, True, False]
        assert (cache.hits, cache.misses) == (2, 1)
        assert cache.hit_rate == pytest.approx(2.0 / 3.0)

    def test_stored_row_mismatch_is_a_miss(self):
        """A present key whose stored row differs from the probe's row
        is a collision: a miss, never the stored energy."""
        cache = RowEnergyCache()
        keys, rows = _entries(1, 2)
        cache.insert(keys[:1], rows[:1], np.array([0.5]))
        found, values = cache.lookup(keys[:1], rows[1:])
        assert found.tolist() == [False] and values.tolist() == [0.0]
        assert (cache.hits, cache.misses) == (0, 1)
        # Inserting the other row under the same key replaces the entry.
        cache.insert(keys[:1], rows[1:], np.array([2.5]))
        assert len(cache) == 1
        assert cache.lookup(keys[:1], rows[1:])[1].tolist() == [2.5]
        assert not cache.lookup(keys[:1], rows[:1])[0].any()

    def test_lru_eviction_order(self):
        # Budget for exactly two entries; touching key 1 must save it.
        cache = RowEnergyCache(max_bytes=2 * ENTRY)
        keys, rows = _entries(1, 2, 3)
        cache.insert(keys[:2], rows[:2], np.array([1.0, 2.0]))
        cache.lookup(keys[:1], rows[:1])  # key 1 is now hottest
        cache.insert(keys[2:], rows[2:], np.array([3.0]))
        assert cache.evictions == 1
        found, values = cache.lookup(keys, rows)
        assert found.tolist() == [True, False, True]
        # The evicted entry's slot was reused without disturbing the rest.
        assert values.tolist() == [1.0, 0.0, 3.0]

    def test_second_chance_is_spent_once(self):
        """A hit spares its entry from one eviction sweep, which clears the
        bit: unless it is hit again, the entry goes at a later sweep."""
        cache = RowEnergyCache(max_bytes=2 * ENTRY)
        keys, rows = _entries(1, 2, 3, 4)
        cache.insert(keys[:2], rows[:2], np.array([1.0, 2.0]))  # queue 1, 2
        cache.lookup(keys[:1], rows[:1])  # 1 is hit
        cache.insert(keys[2:3], rows[2:3], np.array([3.0]))  # 2 goes: 3, 1
        cache.lookup(keys[2:3], rows[2:3])  # 3 is hit, 1 is not
        cache.insert(keys[3:], rows[3:], np.array([4.0]))  # 1 goes
        found, _ = cache.lookup(keys, rows)
        assert found.tolist() == [False, False, True, True]
        assert cache.evictions == 2

    def test_budget_too_small_rejected(self):
        with pytest.raises(ValueError, match="cannot hold a single"):
            RowEnergyCache(max_bytes=row_entry_bytes(1, 1) - 1)
        # The real row width is checked when the first row arrives.
        cache = RowEnergyCache(max_bytes=ENTRY - 1)
        keys, rows = _entries(1)
        with pytest.raises(ValueError, match=f"single {ENTRY} B entry"):
            cache.insert(keys, rows, np.array([1.0]))

    def test_sync_invalidates_on_epoch_change(self, nnp_small):
        cache = RowEnergyCache()
        cache.sync(nnp_small)
        keys, rows = _entries(1)
        cache.insert(keys, rows, np.array([1.0]))
        cache.lookup(keys, rows)
        assert len(cache) == 1
        # Same potential, same epoch: contents survive.
        cache.sync(nnp_small)
        assert len(cache) == 1
        # A weight/standardisation update bumps the epoch: contents are
        # stale energies of a *different* function and must be dropped —
        # but the counters are monotonic work totals and persist.
        nnp_small.set_standardisation(
            feature_mean=nnp_small.feature_mean,
            feature_std=nnp_small.feature_std,
            reference_energies=nnp_small.reference_energies,
            energy_scale=nnp_small.energy_scale,
        )
        cache.sync(nnp_small)
        assert len(cache) == 0
        assert (cache.hits, cache.misses) == (1, 0)

    def test_restore_counters(self):
        cache = RowEnergyCache()
        cache.restore_counters(10, 4, 2)
        assert cache.counters() == {
            "row_cache_hits": 10,
            "row_cache_misses": 4,
            "row_cache_evictions": 2,
        }
        assert len(cache) == 0  # contents stay cold

    def test_memory_bytes_matches_analytic_model(self, tet_small, tet_wide):
        for tet in (tet_small, tet_wide):  # 4- and 8-count rows
            width = 1 + tet.n_shells * 2  # centre + (shell, species) counts
            values = np.arange(37)[:, None] + np.arange(width)
            rows = stored_rows(values[:, 0], values[:, 1:], row_dtype(tet, 2))
            cache = RowEnergyCache()
            keys = row_keys(rows[:, 0], rows[:, 1:])
            cache.insert(keys, rows, np.arange(37.0))
            report = tensorkmc_memory_model(
                n_sites=1024, n_vacancies=4, tet=tet, row_cache=len(cache)
            )
            assert report["row_cache"] == cache.memory_bytes()
            # Key and energy, plus the one-byte row kept for the hit check.
            assert cache.memory_bytes() == 37 * (16 + width)

    def test_summary_keys(self):
        cache = RowEnergyCache()
        summary = cache.summary()
        for key in (
            "row_cache_hits", "row_cache_misses", "row_cache_evictions",
            "row_cache_hit_rate", "row_cache_entries", "row_cache_bytes",
        ):
            assert key in summary


class TestNarrowRows:
    """Rows are stored one byte per value, and a value never wraps."""

    def test_shipped_tets_store_one_byte_rows(
        self, tet_small, tet_wide, tet_standard
    ):
        for tet in (tet_small, tet_wide, tet_standard):
            assert row_dtype(tet, 2) == np.uint8
        # Rcut 6.5: key and energy, then the centre and 16 counts.
        assert row_entry_bytes(tet_standard.n_shells * 2, 1) == 33

    def test_dtype_widens_with_the_largest_value(self):
        class Tet:
            cet_shell = np.zeros(300, dtype=np.int64)  # one 300-site shell

        assert row_dtype(Tet, 2) == np.uint16
        assert row_dtype(Tet, 70_000) == np.uint32

    @pytest.mark.parametrize("bad", [256, -1])
    @pytest.mark.parametrize("column", [0, 3])  # the centre, a count
    def test_value_outside_the_row_dtype_raises(self, bad, column):
        values = np.zeros((2, 4), dtype=np.int64)
        values[1, column] = bad
        centre, counts = values[:, 0], values[:, 1:].astype(np.float32)
        with pytest.raises(ValueError, match="outside the uint8 row dtype"):
            stored_rows(centre, counts, np.dtype(np.uint8))

    def test_largest_value_fits(self):
        counts = np.array([[0.0, 255.0]], dtype=np.float32)
        rows = stored_rows(np.array([2]), counts, np.dtype(np.uint8))
        assert rows.tolist() == [[2, 0, 255]]

    def test_wider_rows_never_narrow_into_the_slab(self):
        cache = RowEnergyCache()
        keys, rows = _entries(1, 2)
        cache.insert(keys[:1], rows[:1], np.array([1.0]))
        wide = rows[1:].astype(np.int64)
        wide[0, 1] += 256  # a uint8 store would wrap it back to row 2
        with pytest.raises(ValueError, match="uint8 row slab"):
            cache.insert(keys[1:], wide, np.array([2.0]))
        assert len(cache) == 1


class TestResolveRowCache:
    def test_auto_gates_like_dedup(self, tet_small, eam_small, nnp_small):
        """One rule: a cache exactly for row-invariant network potentials."""
        variant = copy.copy(nnp_small)
        variant.batch_row_invariant = False
        assert resolve_row_cache(nnp_small) is True
        assert resolve_row_cache(eam_small) is False
        assert resolve_row_cache(variant) is False
        for pot, cached in ((nnp_small, True), (eam_small, False)):
            engine = _serial_engine(tet_small, pot)
            assert (engine.row_cache is not None) is cached
            assert engine.row_cache is engine.evaluator.row_cache

    def test_engine_knob_validates_eagerly(
        self, tet_small, eam_small, alloy_lattice
    ):
        """The row-cache knobs are gone: passing one fails at construction."""
        for knob in ({"row_cache": "on"}, {"row_cache_mb": 1.0}):
            with pytest.raises(TypeError, match="row_cache"):
                TensorKMCEngine(alloy_lattice, eam_small, tet_small, **knob)


# ---------------------------------------------------------------------------
# Row keys: grouping by key must recover the distinct rows exactly
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def evaluator(tet_small, nnp_small):
    """A dedup-enabled evaluator whose ``_dedup_rows`` we probe directly."""
    return VacancySystemEvaluator(tet_small, nnp_small)


class TestPackedSignature:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_injective_over_admissible_domain(self, evaluator, data):
        """Dedup groups exactly the identical rows, for any row width.

        Rows of 1-24 channels with values 0-255 — wider than the old
        one-byte-per-value packing could hold — must give as many groups
        as there are distinct rows, and ``first[inverse]`` must rebuild
        every row.
        """
        n_vals = data.draw(st.integers(min_value=1, max_value=24))
        rows = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=255),
                    st.lists(
                        st.integers(min_value=0, max_value=255),
                        min_size=n_vals, max_size=n_vals,
                    ),
                ),
                min_size=1, max_size=24,
            )
        )
        center = np.array([r[0] for r in rows], dtype=np.int64)
        counts = np.array([r[1] for r in rows], dtype=np.float32)
        first, inverse, keys = evaluator._dedup_rows(center, counts)
        truth = {(r[0], tuple(r[1])) for r in rows}
        assert len(first) == len(truth)
        assert np.array_equal(center[first][inverse], center)
        assert np.array_equal(counts[first][inverse], counts)
        assert np.array_equal(keys, row_keys(center, counts))

    def test_wide_fallback_keys_are_integer_exact(self, tet_small, nnp_small):
        """Regression: >7-channel rows once went through a float32 staging
        matrix whose 24-bit mantissa collapsed distinct large counts onto
        one key.  Rows are integer-exact whatever their width."""
        ev = VacancySystemEvaluator(tet_small, nnp_small)
        center = np.zeros(2, dtype=np.int64)
        wide = np.zeros((2, 8), dtype=np.float64)
        wide[0, 0] = 2.0**24
        wide[1, 0] = 2.0**24 + 1  # float32(2**24 + 1) == float32(2**24)
        first, inverse, keys = ev._dedup_rows(center, wide)
        assert len(first) == 2  # the two rows must NOT collapse
        assert inverse[0] != inverse[1]
        assert keys[0] != keys[1]


class TestForcedCollision:
    """Two distinct rows forced onto one key still get their own energies.

    Weight columns 1 and 2 are made equal, so a row with one count in
    column 1 and a row with one count in column 2 share a key.  Each
    row's energy must equal a plain per-row potential evaluation.
    """

    @staticmethod
    def _rows(monkeypatch, nnp, offset):
        """Rows A, B, A, B whose keys differ by ``offset``."""
        weights = rowcache.ROW_KEY_WEIGHTS.copy()
        weights[2] = weights[1] + np.uint64(offset)
        monkeypatch.setattr(rowcache, "ROW_KEY_WEIGHTS", weights)
        center = np.zeros(4, dtype=np.int64)
        counts = np.zeros((4, 2, 2), dtype=np.float32)
        counts[[0, 2], 0, 0] = 1.0  # row A, twice
        counts[[1, 3], 0, 1] = 1.0  # row B, twice
        exact = nnp.energies_from_counts(center, counts)
        assert exact[0] != exact[1]  # the collision would be visible
        keys = row_keys(center, counts.reshape(4, -1))
        assert keys[1] - keys[0] == offset
        return center, counts, exact

    @pytest.fixture()
    def colliding(self, monkeypatch, nnp_small):
        return self._rows(monkeypatch, nnp_small, 0)

    def test_in_batch_dedup_splits_colliding_rows(self, evaluator, colliding):
        center, counts, exact = colliding
        dedup = evaluator._dedup_rows(center, counts)
        first, inverse, _ = dedup
        assert np.array_equal(counts[first[inverse]], counts)
        got = evaluator._unique_row_energies(dedup, center, counts)
        assert np.array_equal(got, exact)

    def test_keys_differing_in_low_bits_stay_apart(
        self, monkeypatch, evaluator, nnp_small
    ):
        """Dedup sorts keys with the row index in their low bits, so keys
        differing only there land in one group; the row check splits it."""
        center, counts, exact = self._rows(monkeypatch, nnp_small, 1)
        dedup = evaluator._dedup_rows(center, counts)
        first, inverse, _ = dedup
        assert np.array_equal(counts[first[inverse]], counts)
        got = evaluator._unique_row_energies(dedup, center, counts)
        assert np.array_equal(got, exact)

    def test_cache_hit_on_colliding_key_is_a_miss(
        self, tet_small, nnp_small, colliding
    ):
        center, counts, exact = colliding
        ev = VacancySystemEvaluator(tet_small, nnp_small)
        cache = ev.attach_row_cache(RowEnergyCache())
        for rows in ([0], [1]):  # A is cached, then B probes A's key
            dedup = ev._dedup_rows(center[rows], counts[rows])
            got = ev._unique_row_energies(dedup, center[rows], counts[rows])
            assert np.array_equal(got, exact[rows])
        assert (cache.hits, cache.misses) == (0, 2)
        # B replaced A under the shared key, so B now hits.
        dedup = ev._dedup_rows(center[[1]], counts[[1]])
        got = ev._unique_row_energies(dedup, center[[1]], counts[[1]])
        assert np.array_equal(got, exact[[1]])
        assert (cache.hits, cache.misses) == (1, 2)


# ---------------------------------------------------------------------------
# Trajectory bit-identity: serial / parallel / campaign / resume
# ---------------------------------------------------------------------------

N_STEPS = 40


def _serial_engine(tet, pot, **kw):
    lattice = LatticeState((8, 8, 8))
    lattice.randomize_alloy(np.random.default_rng(9), 0.05, 0.004)
    return TensorKMCEngine(
        lattice, pot, tet, temperature=900.0,
        rng=np.random.default_rng(10), **kw,
    )


@pytest.fixture(scope="module")
def serial_off(tet_small, nnp_small):
    """Digest + clock of the cache-off NNP run every variant must hit."""
    engine = _serial_engine(tet_small, nnp_small)
    engine.attach_row_cache(None)
    engine.run(n_steps=N_STEPS)
    return occupancy_digest(engine.lattice), engine.time


class TestSerialTrajectory:
    def test_cache_on_is_bit_identical_and_hits(
        self, tet_small, nnp_small, serial_off
    ):
        engine = _serial_engine(tet_small, nnp_small)  # on for an NNP
        assert engine.row_cache is not None
        engine.run(n_steps=N_STEPS)
        assert (occupancy_digest(engine.lattice), engine.time) == serial_off
        assert engine.row_cache.hits > 0
        summary = engine.summary()
        assert summary["row_cache_hit_rate"] > 0.0
        assert summary["row_cache_bytes"] == engine.row_cache.memory_bytes()

    def test_evict_reinsert_cycling_stays_identical(
        self, tet_small, nnp_small, serial_off
    ):
        # A 16-entry budget far below the working set forces continuous
        # evict/re-insert churn; the trajectory must not notice.
        entry = row_entry_bytes(
            tet_small.n_shells * 2, row_dtype(tet_small, 2).itemsize
        )
        engine = _serial_engine(tet_small, nnp_small)
        engine.attach_row_cache(RowEnergyCache(max_bytes=16 * entry))
        engine.run(n_steps=N_STEPS)
        assert (occupancy_digest(engine.lattice), engine.time) == serial_off
        assert engine.row_cache.evictions > 0
        assert len(engine.row_cache) <= 16

    def test_on_mode_with_table_potential_is_inert(
        self, tet_small, eam_small
    ):
        """A cache attached to an engine on a table potential is never
        consulted (dedup never runs); the trajectory is unaffected."""
        ref = _serial_engine(tet_small, eam_small)
        assert ref.row_cache is None
        ref.run(n_steps=N_STEPS)
        engine = _serial_engine(tet_small, eam_small)
        engine.attach_row_cache(RowEnergyCache())
        engine.run(n_steps=N_STEPS)
        assert occupancy_digest(engine.lattice) == occupancy_digest(
            ref.lattice
        )
        assert engine.time == ref.time
        assert (engine.row_cache.hits, engine.row_cache.misses) == (0, 0)

    def test_checkpoint_resume_is_cold_but_counters_persist(
        self, tmp_path, tet_small, nnp_small, serial_off
    ):
        path = str(tmp_path / "rc.npz")
        interrupted = _serial_engine(tet_small, nnp_small)
        interrupted.run(n_steps=N_STEPS // 2)
        resident = len(interrupted.row_cache)
        counters = interrupted.row_cache.counters()
        assert resident > 0
        save_checkpoint(path, interrupted)
        resumed = load_checkpoint(path, nnp_small, tet=tet_small)
        # Contents are deliberately not serialised: the restart is cold...
        assert resumed.row_cache is not None
        assert len(resumed.row_cache) == 0
        # ...but the monotonic counters carry over.
        assert resumed.row_cache.counters() == counters
        resumed.run(n_steps=N_STEPS - N_STEPS // 2)
        # Cold cache after restart rebuilds bit-identically.
        assert (occupancy_digest(resumed.lattice), resumed.time) == serial_off

    def test_checkpoint_round_trips_mode_and_budget(
        self, tmp_path, tet_small, nnp_small
    ):
        """Neither is archived any more: the resumed engine gets its cache,
        under the default budget, by the same rule as the original."""
        engine = _serial_engine(tet_small, nnp_small)
        engine.run(n_steps=5)
        path = str(tmp_path / "rc2.npz")
        save_checkpoint(path, engine)
        with np.load(path) as data:
            assert not {"row_cache", "row_cache_budget"} & set(data.files)
        resumed = load_checkpoint(path, nnp_small, tet=tet_small)
        assert resumed.row_cache.max_bytes == ROW_CACHE_BYTES


def _parallel_sim(tet, pot, **kw):
    lattice = LatticeState((16, 16, 16))
    lattice.randomize_alloy(np.random.default_rng(3), 0.05, 0.003)
    return SublatticeKMC(
        lattice, pot, tet, n_ranks=4, temperature=900.0,
        t_stop=2e-10, seed=5, **kw,
    )


class TestParallelTrajectory:
    N_CYCLES = 4

    def _digest(self, sim):
        return occupancy_digest(sim.gather_global()), sim.time

    def test_cache_on_is_bit_identical(self, tet_small, nnp_small):
        off = _parallel_sim(tet_small, nnp_small)
        off.attach_row_cache(None)
        assert off.evaluator.row_cache is None
        on = _parallel_sim(tet_small, nnp_small)
        assert on.row_cache is not None
        for _ in range(self.N_CYCLES):
            off.cycle()
            on.cycle()
        assert self._digest(on) == self._digest(off)
        assert on.row_cache.hits > 0
        summary = on.summary()
        assert summary["row_cache_hit_rate"] > 0.0

    def test_cycle_stats_count_shared_cache_once(self, tet_small, nnp_small):
        """Rank kernels share one cache; the per-cycle deltas must merge
        its counters exactly once, so summed stats equal the totals."""
        sim = _parallel_sim(tet_small, nnp_small)
        for _ in range(self.N_CYCLES):
            sim.cycle()
        hits = sum(c.row_cache_hits for c in sim.cycles)
        misses = sum(c.row_cache_misses for c in sim.cycles)
        assert (hits, misses) == (sim.row_cache.hits, sim.row_cache.misses)

    def test_parallel_checkpoint_resume_is_cold_and_identical(
        self, tmp_path, tet_small, nnp_small
    ):
        ref = _parallel_sim(tet_small, nnp_small)
        ref.attach_row_cache(None)
        for _ in range(self.N_CYCLES):
            ref.cycle()

        sim = _parallel_sim(tet_small, nnp_small)
        for _ in range(self.N_CYCLES // 2):
            sim.cycle()
        counters = sim.row_cache.counters()
        path = str(tmp_path / "par.npz")
        save_parallel_checkpoint(path, sim)
        # As written before the row-cache knobs were removed: the retired
        # mode and budget fields are accepted and ignored.
        data = dict(np.load(path))
        data["row_cache"] = np.array(["on"])
        data["row_cache_budget"] = np.array([1024], dtype=np.int64)
        np.savez_compressed(path, **data)
        resumed = load_parallel_checkpoint(path, nnp_small, tet=tet_small)
        assert len(resumed.row_cache) == 0  # cold restart
        assert resumed.row_cache.counters() == counters
        for _ in range(self.N_CYCLES - self.N_CYCLES // 2):
            resumed.cycle()
        assert self._digest(resumed) == self._digest(ref)


class TestCampaignSharedCache:
    SPECS = [
        ReplicaSpec("r0", seed=0, n_steps=N_STEPS),
        ReplicaSpec("r1", seed=1, n_steps=N_STEPS),
        ReplicaSpec("r2", seed=2, n_steps=N_STEPS),
    ]

    def _factory(self, tet, pot):
        def factory(spec):
            lattice = LatticeState((8, 8, 8))
            lattice.randomize_alloy(
                np.random.default_rng(9 + spec.seed), 0.05, 0.004
            )
            return TensorKMCEngine(
                lattice, pot, tet, temperature=900.0,
                rng=np.random.default_rng(10 + spec.seed),
            )
        return factory

    def test_shared_cache_is_bit_identical_and_shared(
        self, tet_small, nnp_small
    ):
        factory = self._factory(tet_small, nnp_small)
        off = []
        for spec in self.SPECS:
            engine = factory(spec)
            engine.attach_row_cache(None)
            engine.run(n_steps=spec.n_steps)
            off.append((occupancy_digest(engine.lattice), engine.time))
        campaign = ReplicaCampaign(self.SPECS, factory)
        on = [(r.digest, r.time) for r in campaign.run()]
        assert on == off
        # One campaign-wide cache, hit by every replica.
        assert campaign.row_cache is not None
        assert campaign.row_cache.hits > 0
        assert campaign.summary()["row_cache_hit_rate"] > 0.0

    def test_unknown_mode_rejected_eagerly(self, tet_small, nnp_small):
        """The campaign's row-cache and mode knobs are gone."""
        for knob in ({"row_cache": "off"}, {"row_cache_mb": 1.0},
                     {"mode": "sequential"}):
            with pytest.raises(TypeError):
                ReplicaCampaign(
                    self.SPECS, self._factory(tet_small, nnp_small), **knob
                )
