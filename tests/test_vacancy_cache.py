"""Vacancy cache: invalidation semantics and statistics."""

import numpy as np
import pytest

from repro.core.vacancy_cache import VacancyCache
from repro.lattice import LatticeState


def _cache(keys):
    """A cache whose snapshots hold a 10-site VET and 3 region rows."""
    return VacancyCache(keys, n_all=10, n_region=3)


def _store(cache, slot):
    """Store one delta-ready entry in ``slot``, as a refresh does: the VET
    into its slab, every region row's energies, then the rates, and the
    kernel counts the rebuild."""
    slots = np.array([slot])
    cache.vets[slot] = slot
    cache.store_batch(slots, np.zeros(3, dtype=np.intp), np.arange(3),
                      np.zeros((3, 9)))
    cache.store_rates(slots, np.ones((1, 8)))
    cache.stats.rebuilds += 1


def _stale(cache):
    return np.flatnonzero(cache.stale_mask()[: cache.n_slots]).tolist()


@pytest.fixture()
def lattice():
    return LatticeState((10, 10, 10))


class TestBasics:
    def test_slots_follow_input_order(self):
        cache = _cache([5, 2, 9])
        assert [cache.key_of(i) for i in range(3)] == [5, 2, 9]

    def test_total_rate(self):
        cache = _cache([3])
        _store(cache, 0)
        assert np.array_equal(cache.rates[0], np.ones(8))
        assert cache.total_rates[0] == 8.0
        assert cache.delta_ready[0]
        assert np.array_equal(cache.vets[0], np.zeros(10))

    def test_move_invalidates(self):
        cache = _cache([5])
        _store(cache, 0)
        cache.move(0, 7)
        assert cache.key_of(0) == 7
        assert not cache.fresh[0] and not cache.delta_ready[0]

    def test_stale_slots(self):
        cache = _cache([1, 2, 3])
        _store(cache, 1)
        assert _stale(cache) == [0, 2]

    def test_invalidate_all(self):
        cache = _cache([1, 2])
        _store(cache, 0)
        _store(cache, 1)
        cache.invalidate_all()
        assert _stale(cache) == [0, 1]
        assert cache.stats.invalidations == 2


class TestDistanceInvalidation:
    def test_nearby_change_invalidates(self, lattice):
        center = lattice.site_id(0, 5, 5, 5)
        near = lattice.site_id(0, 5, 5, 6)  # one cell away (= a)
        cache = _cache([center])
        _store(cache, 0)
        cache.invalidate_near([near], lattice, radius=lattice.a + 0.1)
        assert not cache.fresh[0]

    def test_far_change_preserved(self, lattice):
        center = lattice.site_id(0, 5, 5, 5)
        far = lattice.site_id(0, 0, 0, 0)
        cache = _cache([center])
        _store(cache, 0)
        cache.invalidate_near([far], lattice, radius=lattice.a)
        assert cache.fresh[0]

    def test_periodic_distance_used(self, lattice):
        """A change across the periodic boundary still invalidates."""
        center = lattice.site_id(0, 0, 0, 0)
        wrapped = lattice.site_id(0, 9, 0, 0)  # distance a through the wrap
        cache = _cache([center])
        _store(cache, 0)
        cache.invalidate_near([wrapped], lattice, radius=lattice.a + 0.1)
        assert not cache.fresh[0]

    def test_empty_changes_noop(self, lattice):
        cache = _cache([0])
        _store(cache, 0)
        cache.invalidate_near([], lattice, radius=10.0)
        assert cache.fresh[0]


class TestStats:
    def test_hit_rate(self):
        cache = _cache([0, 1])
        _store(cache, 0)
        cache.stats.reuses += 2
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_memory_bytes_counts_live_entries(self):
        cache = _cache([0, 1])
        assert cache.memory_bytes() == 0
        _store(cache, 0)
        one = cache.memory_bytes()
        # Rate row + VET codes + row energies + dirty-row mask.
        assert one == 8 * 8 + 10 + 9 * 3 * 8 + 3
        _store(cache, 1)
        assert cache.memory_bytes() == 2 * one

    def test_summary_keys(self):
        cache = _cache([0])
        summary = cache.summary()
        assert {"n_slots", "live_entries", "hit_rate", "memory_bytes"} <= set(summary)
