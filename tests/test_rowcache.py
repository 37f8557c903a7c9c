"""Persistent row-energy cache: unit behaviour and bit-exact trajectories.

The :class:`~repro.core.rowcache.RowEnergyCache` memoizes unique-row
energies across batches under the same ``batch_row_invariant`` contract
that licenses in-batch dedup, so the observable guarantee is absolute:
every fixed-seed trajectory (serial, parallel, campaign, resumed from a
checkpoint) is bit-identical with the cache attached and detached —
including when a tiny byte budget forces constant evict/re-insert
cycling.  The row code is the only thing dedup and the cache look at, so
the oracle tests below check that it is exact: distinct admissible rows
get distinct codes, the codes the evaluator derives for the swap states
equal a full encode's, and every shipped TET's codes fit an int64 while
a wider one is refused.
"""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.baseline.memory_model import tensorkmc_memory_model
from repro.campaign import ReplicaCampaign, ReplicaSpec, occupancy_digest
from repro.core.engine import TensorKMCEngine
from repro.core.rowcache import (
    ROW_CACHE_BYTES,
    ROW_ENTRY_BYTES,
    RowEnergyCache,
    row_code_weights,
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
from repro.potentials import EAMParameters, EAMPotential


def _keys(*codes):
    return np.array(codes, dtype=np.int64)


# ---------------------------------------------------------------------------
# Unit behaviour
# ---------------------------------------------------------------------------


class TestRowEnergyCacheUnit:
    def test_roundtrip_is_bit_exact(self):
        cache = RowEnergyCache()
        for dtype in (np.float32, np.float64):
            cache.clear()
            keys = _keys(3, 7, 11)
            values = np.array(
                [0.1, -4.000000001, np.pi], dtype=dtype
            )
            cache.insert(keys, values)
            found, got = cache.lookup(keys)
            assert found.all()
            assert got.dtype == values.dtype
            # Bit-exact through the slab, not just close.
            assert np.array_equal(
                got.view(np.uint8), values.view(np.uint8)
            )

    def test_lookup_counts_hits_and_misses(self):
        cache = RowEnergyCache()
        keys = _keys(1, 2, 3)
        cache.insert(keys[:2], np.array([0.5, 1.5]))
        found, _ = cache.lookup(keys)
        assert found.tolist() == [True, True, False]
        assert (cache.hits, cache.misses) == (2, 1)
        assert cache.hit_rate == pytest.approx(2.0 / 3.0)

    def test_reinsert_replaces_and_last_repeat_wins(self):
        cache = RowEnergyCache()
        keys = _keys(1, 2)
        cache.insert(keys, np.array([0.5, 1.5]))
        cache.insert(_keys(1, 1), np.array([2.5, 3.5]))
        assert len(cache) == 2
        assert cache.lookup(keys)[1].tolist() == [3.5, 1.5]

    def test_lru_eviction_order(self):
        # Budget for exactly two entries; touching key 1 must save it.
        cache = RowEnergyCache(max_bytes=2 * ROW_ENTRY_BYTES)
        keys = _keys(1, 2, 3)
        cache.insert(keys[:2], np.array([1.0, 2.0]))
        cache.lookup(keys[:1])  # key 1 is now hottest
        cache.insert(keys[2:], np.array([3.0]))
        assert cache.evictions == 1
        found, values = cache.lookup(keys)
        assert found.tolist() == [True, False, True]
        # The evicted entry's slot was reused without disturbing the rest.
        assert values.tolist() == [1.0, 0.0, 3.0]

    def test_second_chance_is_spent_once(self):
        """A hit spares its entry from one eviction sweep, which clears the
        bit: unless it is hit again, the entry goes at a later sweep."""
        cache = RowEnergyCache(max_bytes=2 * ROW_ENTRY_BYTES)
        keys = _keys(1, 2, 3, 4)
        cache.insert(keys[:2], np.array([1.0, 2.0]))  # queue 1, 2
        cache.lookup(keys[:1])  # 1 is hit
        cache.insert(keys[2:3], np.array([3.0]))  # 2 goes: 3, 1
        cache.lookup(keys[2:3])  # 3 is hit, 1 is not
        cache.insert(keys[3:], np.array([4.0]))  # 1 goes
        found, _ = cache.lookup(keys)
        assert found.tolist() == [False, False, True, True]
        assert cache.evictions == 2

    def test_a_re_inserted_code_can_be_evicted_at_once(self):
        """Re-inserted codes join the young end in batch order, so an
        eviction that passes the whole ring takes the first of them."""
        cache = RowEnergyCache(max_bytes=2 * ROW_ENTRY_BYTES)
        cache.insert(_keys(1, 2), np.array([1.0, 2.0]))  # queue 1, 2
        cache.insert(_keys(1, 3, 4), np.array([5.0, 3.0, 4.0]))
        # Queue 2, 1, 3, 4 over a budget of two: 2 goes, then 1.
        found, values = cache.lookup(_keys(1, 2, 3, 4))
        assert found.tolist() == [False, False, True, True]
        assert values[2:].tolist() == [3.0, 4.0]
        assert (len(cache), cache.evictions) == (2, 2)

    def test_budget_too_small_rejected(self):
        entry = ROW_ENTRY_BYTES
        with pytest.raises(ValueError, match=f"single {entry} B entry"):
            RowEnergyCache(max_bytes=entry - 1)
        assert RowEnergyCache(max_bytes=entry).max_bytes == entry

    def test_sync_invalidates_on_epoch_change(self, nnp_small):
        cache = RowEnergyCache()
        cache.sync(nnp_small)
        keys = _keys(1)
        cache.insert(keys, np.array([1.0]))
        cache.lookup(keys)
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
        cache = RowEnergyCache()
        cache.insert(np.arange(37, dtype=np.int64), np.arange(37.0))
        for tet in (tet_small, tet_wide):
            report = tensorkmc_memory_model(
                n_sites=1024, n_vacancies=4, tet=tet, row_cache=len(cache)
            )
            assert report["row_cache"] == cache.memory_bytes()
        # The table's worst case per entry, whatever the row width.
        assert cache.memory_bytes() == 37 * ROW_ENTRY_BYTES

    def test_summary_keys(self):
        cache = RowEnergyCache()
        summary = cache.summary()
        for key in (
            "row_cache_hits", "row_cache_misses", "row_cache_evictions",
            "row_cache_hit_rate", "row_cache_entries", "row_cache_bytes",
        ):
            assert key in summary


def _resident_bytes(cache):
    """Bytes of every array the cache holds, also inside tuples and lists."""
    held = list(vars(cache).values())
    total = 0
    while held:
        a = held.pop()
        if isinstance(a, np.ndarray):
            total += a.nbytes
        elif isinstance(a, (tuple, list)):
            held.extend(a)
    return total


class TestTableBytes:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_entries", [10**3, 3 * 10**3, 10**4, 10**5])
    def test_arrays_fit_the_charge(self, dtype, n_entries):
        """``memory_bytes()`` is an upper bound on the table's arrays, at
        every fill a rehash can leave."""
        rng = np.random.default_rng(n_entries)
        codes = rng.choice(2**62, size=n_entries, replace=False)
        cache = RowEnergyCache()
        for batch in np.array_split(codes, 7):
            cache.insert(np.sort(batch), rng.random(len(batch)).astype(dtype))
            assert _resident_bytes(cache) <= cache.memory_bytes()
        assert len(cache) == n_entries
        found, _ = cache.lookup(codes)
        assert found.all()
        assert _resident_bytes(cache) <= cache.memory_bytes()


class _Potential:
    """What ``sync`` reads of a potential: its identity and epoch."""

    params_epoch = 0


#: Row codes: a narrow range, so batches repeat codes and probes collide,
#: and the int64 extremes.
_CODES = st.lists(
    st.one_of(st.integers(0, 200), st.integers(2**62, 2**63 - 1)),
    max_size=40,
)


class RowCacheMachine(RuleBasedStateMachine):
    """The table against a reference model: a dict of energies and a deque
    in insert order, evicted by second chance, op for op."""

    @initialize(
        entries=st.integers(2, 64),
        slack=st.integers(0, ROW_ENTRY_BYTES - 1),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def start(self, entries, slack, dtype):
        self.cache = RowEnergyCache(entries * ROW_ENTRY_BYTES + slack)
        self.capacity, self.dtype = entries, dtype
        self.energy, self.referenced, self.order = {}, {}, deque()
        self.counts = [0, 0, 0]  # hits, misses, evictions
        self.potentials = [_Potential(), _Potential()]
        self.token = None

    def _values(self, n, seed):
        return np.random.default_rng(seed).normal(size=n).astype(self.dtype)

    def _insert(self, keys, values):
        self.cache.insert(np.array(keys, dtype=np.int64), values)
        latest = dict(zip(keys, values))  # first place, last value
        for key, value in latest.items():
            if key in self.energy:
                self.order.remove(key)
            self.energy[key], self.referenced[key] = value, False
            self.order.append(key)
        while len(self.order) > self.capacity:
            key = self.order.popleft()
            if self.referenced[key]:
                self.referenced[key] = False
                self.order.append(key)
            else:
                del self.energy[key], self.referenced[key]
                self.counts[2] += 1

    def _lookup(self, keys):
        found, values = self.cache.lookup(np.array(keys, dtype=np.int64))
        assert found.tolist() == [k in self.energy for k in keys]
        expected = np.array(
            [self.energy[k] for k in keys if k in self.energy], self.dtype
        )
        assert values[found].tobytes() == expected.tobytes()
        for key in keys:
            if key in self.energy:
                self.referenced[key] = True
        self.counts[0] += int(found.sum())
        self.counts[1] += len(keys) - int(found.sum())
        return found

    @rule(keys=_CODES, seed=st.integers(0, 2**16))
    def insert(self, keys, seed):
        self._insert(keys, self._values(len(keys), seed))

    @rule(keys=_CODES)
    def lookup(self, keys):
        self._lookup(keys)

    @rule()
    def lookup_a_wide_batch(self):
        """Every small code and every live one: a batch that spans the
        whole table."""
        self._lookup(list(range(201)) + list(self.energy))

    @rule(keys=_CODES, seed=st.integers(0, 2**16))
    def lookup_then_insert_the_misses(self, keys, seed):
        """The evaluator's pattern: distinct ascending codes, then the
        energies of the ones that missed."""
        keys = sorted(set(keys))
        found = self._lookup(keys)
        missed = [k for k, f in zip(keys, found) if not f]
        self._insert(missed, self._values(len(missed), seed))

    @rule(keys=_CODES, seed=st.integers(0, 2**16))
    def lookup_then_insert_as_many_other_codes(self, keys, seed):
        """A lookup, then an insert of as many codes as it missed but
        other ones, which its probes do not place."""
        keys = sorted(set(keys))
        found = self._lookup(keys)
        others = list(range(300, 300 + len(keys) - int(found.sum())))
        self._insert(others, self._values(len(others), seed))

    @rule()
    def clear(self):
        self.cache.clear()
        self.energy.clear(), self.referenced.clear(), self.order.clear()

    @rule(which=st.integers(0, 1), bump=st.booleans())
    def sync(self, which, bump):
        potential = self.potentials[which]
        potential.params_epoch += bump
        self.cache.sync(potential)
        token = (id(potential), potential.params_epoch)
        if token != self.token:
            if self.token is not None:
                self.clear()
            self.token = token

    @invariant()
    def agrees_with_the_model(self):
        cache = self.cache
        assert len(cache) == len(self.energy)
        assert [cache.hits, cache.misses, cache.evictions] == self.counts
        live = np.flatnonzero(cache._codes >= 0)
        assert sorted(cache._codes[live].tolist()) == sorted(self.energy)
        # Every live code probes to its own slot.
        slots, found = cache._find(cache._codes[live])
        assert found.all() and np.array_equal(slots, live)


TestRowCacheMachine = RowCacheMachine.TestCase
TestRowCacheMachine.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)


class TestEngineRowCache:
    def test_every_engine_gets_the_evaluators_cache(
        self, tet_small, eam_small, nnp_small
    ):
        """One rule: every driver, on every potential, attaches one cache
        to its evaluator, and exposes it only as a read-only view."""
        for pot in (nnp_small, eam_small):
            engine = _serial_engine(tet_small, pot)
            sim = _parallel_sim(tet_small, pot)
            for driver in (engine, sim):
                assert isinstance(driver.row_cache, RowEnergyCache)
                assert driver.row_cache is driver.evaluator.row_cache
                with pytest.raises(AttributeError):
                    driver.row_cache = None
                assert not hasattr(driver, "attach_row_cache")
            assert not hasattr(engine.kernel, "row_cache")

    def test_engine_knob_validates_eagerly(
        self, tet_small, eam_small, alloy_lattice
    ):
        """The row-cache knobs are gone: passing one fails at construction."""
        for knob in ({"row_cache": "on"}, {"row_cache_mb": 1.0}):
            with pytest.raises(TypeError, match="row_cache"):
                TensorKMCEngine(alloy_lattice, eam_small, tet_small, **knob)


# ---------------------------------------------------------------------------
# Row codes: exact, derivable from state 0, and refused where they overflow
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tets(tet_small, tet_wide, tet_standard):
    """The shipped TETs by cutoff."""
    return {2.87: tet_small, 4.8: tet_wide, 6.5: tet_standard}


#: Every shipped (TET, species alphabet): binary at each cutoff, ternary
#: at rcut 2.87.
SHIPPED = [(2.87, 2), (4.8, 2), (6.5, 2), (2.87, 3)]


def _radices(tet, n_elements):
    """Radix of each (shell, species) digit: the shell's site count + 1."""
    sizes = np.bincount(np.asarray(tet.cet_shell), minlength=tet.n_shells)
    return np.repeat(sizes, n_elements) + 1


def _codes(tet, n_elements, centres, counts):
    """Codes of ``(centre, flat counts)`` rows, formed as the evaluator
    forms them: int64 ``counts @ R + centre * W0``."""
    weights, centre_weight = row_code_weights(tet, n_elements)
    counts = np.asarray(counts).astype(np.int64)
    return counts @ weights + np.asarray(centres, np.int64) * centre_weight


@st.composite
def _admissible_row(draw, radices, n_elements):
    """A centre in ``[0, n_elements]`` and, per shell, species counts that
    sum to at most the shell's site count."""
    centre = draw(st.integers(0, n_elements))
    counts = []
    for shell in range(len(radices) // n_elements):
        left = int(radices[shell * n_elements]) - 1
        for _ in range(n_elements):
            count = draw(st.integers(0, left))
            counts.append(count)
            left -= count
    return centre, tuple(counts)


class _CountsNetwork:
    """A cheap stand-in network potential: row-invariant, any alphabet."""

    batch_row_invariant = True

    def __init__(self, tet, n_elements=2):
        self.n_shells = tet.n_shells
        self.shell_distances = tet.shell_distances
        self.n_elements = n_elements

    def energies_from_counts(self, centres, counts):
        flat = counts.reshape(len(counts), -1)
        return flat.sum(axis=1, dtype=np.float64) + centres


class TestRowCode:
    @pytest.mark.parametrize("rcut,n_elements", SHIPPED)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_injective_over_admissible_domain(
        self, tets, rcut, n_elements, data
    ):
        """Every admissible row decodes back from its code, so distinct
        rows have distinct codes; int64 arithmetic is exact throughout."""
        tet = tets[rcut]
        radices = _radices(tet, n_elements)
        rows = data.draw(st.lists(
            _admissible_row(radices, n_elements), min_size=1, max_size=24
        ))
        codes = _codes(
            tet, n_elements, [r[0] for r in rows], [r[1] for r in rows]
        )
        for (centre, counts), code in zip(rows, codes.tolist()):
            digits = []
            for radix in radices.tolist():
                code, digit = divmod(code, radix)
                digits.append(digit)
            assert (code, tuple(digits)) == (centre, counts)
        assert len(set(codes.tolist())) == len(set(rows))

    @pytest.mark.parametrize("rcut", [2.87, 4.8, 6.5])
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_vets=st.integers(1, 3),
        vacancy_fraction=st.sampled_from([0.0, 0.05, 0.3]),
    )
    def test_derived_codes_equal_a_full_encode(
        self, tets, rcut, seed, n_vets, vacancy_fraction
    ):
        """The nine codes the evaluator derives per row from state 0 equal
        the codes of the fully encoded ``region_features_counts`` rows,
        and dedup groups exactly the equal codes."""
        tet = tets[rcut]
        ev = VacancySystemEvaluator(tet, _CountsNetwork(tet))
        rng = np.random.default_rng(seed)
        vets = rng.choice(
            3, size=(n_vets, tet.n_all),
            p=[0.8 - vacancy_fraction, 0.2, vacancy_fraction],
        ).astype(np.uint8)
        vets[:, tet.CENTER] = ev.vacancy_code
        seen = []
        dedup = ev._dedup_rows

        def spy(keys):
            first, inverse = dedup(keys)
            assert np.array_equal(keys[first][inverse], keys)
            assert len(first) == len(np.unique(keys))
            seen.append(keys)
            return first, inverse

        ev._dedup_rows = spy
        ev.evaluate_batch(vets)
        states = ev.trial_vets_batch(vets)  # (B, 9, n_all)
        counts = ev.region_features_counts(states.reshape(-1, tet.n_all))
        full = _codes(
            tet, 2, states[:, :, : tet.n_region].ravel(),
            counts.reshape(len(counts) * tet.n_region, -1),
        ).reshape(n_vets, 9, tet.n_region)
        # evaluate_batch lays rows out as (vacancy, region row, state).
        assert np.array_equal(
            np.concatenate(seen), full.transpose(0, 2, 1).ravel()
        )

    @pytest.mark.parametrize("rcut,n_elements", SHIPPED)
    def test_largest_admissible_code_fits_int64(self, tets, rcut, n_elements):
        tet = tets[rcut]
        radices = _radices(tet, n_elements)
        weights, centre_weight = row_code_weights(tet, n_elements)
        # The vacancy centre, and every shell full of its last species: the
        # leading digits at their largest.
        largest = np.zeros(len(radices), dtype=np.int64)
        largest[n_elements - 1 :: n_elements] = radices[::n_elements] - 1
        exact = sum(
            c * w for c, w in zip(largest.tolist(), weights.tolist())
        ) + n_elements * centre_weight
        code = _codes(tet, n_elements, [n_elements], largest[None])[0]
        assert int(code) == exact < 2**63
        # No admissible row, nor any row of in-range digits, codes higher.
        assert centre_weight * (n_elements + 1) <= 2**63

    def test_codes_that_do_not_fit_are_refused(self, tet_standard):
        """Ternary at rcut 6.5 needs 91 bits: every evaluator forms codes,
        so a network and a table potential are both refused."""
        with pytest.raises(ValueError, match="need 91 bits"):
            row_code_weights(tet_standard, 3)
        for ternary in (
            _CountsNetwork(tet_standard, n_elements=3),
            EAMPotential(
                tet_standard.shell_distances, EAMParameters.fe_cu_ni()
            ),
        ):
            with pytest.raises(ValueError, match="need 91 bits"):
                VacancySystemEvaluator(tet_standard, ternary)


class TestNarrowRows:
    """A row is one int64 code, never wider than one byte per value, and a
    value outside the species alphabet never reaches a code."""

    def test_shipped_tets_store_one_byte_rows(
        self, tet_small, tet_wide, tet_standard
    ):
        for tet in (tet_small, tet_wide, tet_standard):
            radices = _radices(tet, 2)
            assert radices.max() <= 256  # every count digit fits one byte
            _, centre_weight = row_code_weights(tet, 2)
            span_bits = (centre_weight * 3 - 1).bit_length()
            assert span_bits <= min(8 * (len(radices) + 1), 63)
        # Rcut 6.5: up to four table slots of code, energy and reference
        # bit, plus half a ring slot each (the stored rows took 33 B).
        assert ROW_ENTRY_BYTES == 4 * (8 + 8 + 1 + 4)

    @pytest.mark.parametrize("bad", [256, -1])
    @pytest.mark.parametrize("column", [0, 3])  # the centre, a neighbour
    def test_value_outside_the_row_dtype_raises(
        self, tet_small, nnp_small, bad, column
    ):
        ev = VacancySystemEvaluator(tet_small, nnp_small)
        vets = np.zeros((2, tet_small.n_all), dtype=np.int64)
        vets[:, tet_small.CENTER] = ev.vacancy_code
        vets[1, column] = bad
        with pytest.raises(ValueError, match="must be species codes 0..2"):
            ev.evaluate_batch(vets)


class TestPackedSignature:
    def test_wide_fallback_keys_are_integer_exact(self, tet_standard):
        """Regression: >7-channel rows once went through a float32 staging
        matrix whose mantissa collapsed distinct large counts onto one key.
        At rcut 6.5 two rows one count apart have codes near 2**60 that
        float64 cannot tell apart; dedup keeps them apart."""
        ev = VacancySystemEvaluator(tet_standard, _CountsNetwork(tet_standard))
        radices = _radices(tet_standard, 2)
        counts = np.zeros((2, len(radices)), dtype=np.int64)
        counts[:, 1::2] = radices[::2] - 1  # every shell full of species 1
        counts[:, 1] -= 1
        counts[0, 0] = 1  # one 1NN site of species 0 instead
        keys = counts @ ev._code_weights + 2 * ev._centre_weight
        exact = [
            sum(c * w for c, w in zip(row, ev._code_weights.tolist()))
            + 2 * ev._centre_weight
            for row in counts.tolist()
        ]
        assert keys.tolist() == exact and exact[0] - exact[1] == 1
        assert float(exact[0]) == float(exact[1])
        first, inverse = ev._dedup_rows(keys)
        assert len(first) == 2  # the two rows must NOT collapse
        assert inverse[0] != inverse[1]


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
    engine.evaluator.attach_row_cache(None)
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
        engine = _serial_engine(tet_small, nnp_small)
        engine.evaluator.attach_row_cache(
            RowEnergyCache(max_bytes=16 * ROW_ENTRY_BYTES)
        )
        engine.run(n_steps=N_STEPS)
        assert (occupancy_digest(engine.lattice), engine.time) == serial_off
        assert engine.row_cache.evictions > 0
        assert len(engine.row_cache) <= 16

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
        off.evaluator.attach_row_cache(None)
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
        ref.evaluator.attach_row_cache(None)
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


def _campaign_factory(tet, pot):
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


def _solo_runs(specs, factory):
    """``(digest, clock)`` of each spec run alone with its cache detached."""
    out = []
    for spec in specs:
        engine = factory(spec)
        engine.evaluator.attach_row_cache(None)
        engine.run(n_steps=spec.n_steps)
        out.append((occupancy_digest(engine.lattice), engine.time))
    return out


class TestCampaignSharedCache:
    SPECS = [
        ReplicaSpec("r0", seed=0, n_steps=N_STEPS),
        ReplicaSpec("r1", seed=1, n_steps=N_STEPS),
        ReplicaSpec("r2", seed=2, n_steps=N_STEPS),
    ]

    def test_shared_cache_is_bit_identical_and_shared(
        self, tet_small, nnp_small
    ):
        factory = _campaign_factory(tet_small, nnp_small)
        off = _solo_runs(self.SPECS, factory)
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
                    self.SPECS, _campaign_factory(tet_small, nnp_small),
                    **knob
                )


class TestTablePotentialCache:
    """EAM, the CLI's default potential, takes the NNP's row path: row
    codes, dedup and a row cache that is hit, not just harmless."""

    def test_cache_is_live_and_bit_identical(self, tet_small, eam_small):
        """Serial, parallel and campaign runs with the cache attached land
        on the bits of the same runs detached, with hits > 0."""
        serial = [_serial_engine(tet_small, eam_small) for _ in range(2)]
        serial[1].evaluator.attach_row_cache(None)
        for engine in serial:
            engine.run(n_steps=N_STEPS)
        on, off = ((occupancy_digest(e.lattice), e.time) for e in serial)
        assert on == off
        assert serial[0].row_cache.hits > 0

        sims = [_parallel_sim(tet_small, eam_small) for _ in range(2)]
        sims[1].evaluator.attach_row_cache(None)
        for sim in sims:
            sim.run(TestParallelTrajectory.N_CYCLES)
        on, off = ((occupancy_digest(s.gather_global()), s.time) for s in sims)
        assert on == off
        assert sims[0].row_cache.hits > 0

        specs = TestCampaignSharedCache.SPECS
        factory = _campaign_factory(tet_small, eam_small)
        campaign = ReplicaCampaign(specs, factory)
        on = [(r.digest, r.time) for r in campaign.run()]
        assert on == _solo_runs(specs, factory)
        assert campaign.row_cache.hits > 0
