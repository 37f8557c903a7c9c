"""Unit tests for the shared event kernel layer (core/kernel.py)."""

from __future__ import annotations

import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.campaign import alloy_engine_factory, temperature_ladder
from repro.constants import FE
from repro.core.delta import RefreshPlan
from repro.core.kernel import (
    EventKernel,
    NoMovesError,
    refresh_many,
    select_direction,
)
from repro.core.propensity import FenwickPropensity, LinearPropensity
from repro.core.vacancy_cache import SlotPool


# ----------------------------------------------------------------------
# select_direction: the zero-rate fallback guard
# ----------------------------------------------------------------------
class TestSelectDirection:
    def test_plain_selection(self):
        rates = np.array([1.0, 2.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert select_direction(rates, 0.5) == 0
        assert select_direction(rates, 1.5) == 1
        assert select_direction(rates, 3.5) == 2

    def test_walkdown_skips_trailing_zeros(self):
        # A boundary remainder lands past the last nonzero direction; the
        # walk-down must settle on the nearest executable one.
        rates = np.array([0.0, 0.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        assert select_direction(rates, 2.0) == 2

    def test_all_zero_row_raises_instead_of_impossible_hop(self):
        # Regression for the seed walk-down, which would return direction 0
        # with zero rate and execute an impossible (vacancy-vacancy) hop.
        rates = np.zeros(8)
        with pytest.raises(NoMovesError):
            select_direction(rates, 0.0)

    def test_zero_leading_directions_never_selected(self):
        rates = np.array([0.0, 0.0, 0.0, 4.0, 0.0, 0.0, 0.0, 1.0])
        for remainder in (0.0, 1e-300, 3.999, 4.0, 4.5, 5.0):
            direction = select_direction(rates, remainder)
            assert rates[direction] > 0.0


# ----------------------------------------------------------------------
# PropensityStore: grow + parked slots
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", [FenwickPropensity, LinearPropensity])
class TestStoreGrow:
    def test_grow_preserves_values(self, cls):
        store = cls(3)
        for slot, v in enumerate([1.0, 2.0, 3.0]):
            store.update(slot, v)
        store.grow(10)
        assert store.n_slots == 10
        assert [store.get(s) for s in range(3)] == [1.0, 2.0, 3.0]
        assert store.total == pytest.approx(6.0)
        store.update(9, 4.0)
        assert store.total == pytest.approx(10.0)
        slot, rem = store.select(9.5)
        assert slot == 9
        assert rem == pytest.approx(3.5)

    def test_grow_cannot_shrink(self, cls):
        store = cls(4)
        with pytest.raises(ValueError):
            store.grow(2)

    def test_select_depth_is_recorded(self, cls):
        store = cls(8)
        store.update(2, 5.0)
        store.select(1.0)
        assert store.last_select_depth > 0


def test_fenwick_grow_matches_rebuilt_tree():
    rng = np.random.default_rng(3)
    store = FenwickPropensity(5)
    values = rng.random(5)
    for slot, v in enumerate(values):
        store.update(slot, float(v))
    store.grow(23)  # beyond the power-of-two capacity: forces a rebuild
    reference = FenwickPropensity(23)
    for slot, v in enumerate(values):
        reference.update(slot, float(v))
    assert np.array_equal(store.tree, reference.tree)
    assert store.total == reference.total


# ----------------------------------------------------------------------
# EventKernel: dynamic slots, refresh accounting, invalidation
# ----------------------------------------------------------------------
class _StubSites:
    """A toy site store on the integer grid (periodic when ``periodic``).

    A vacancy sits at every initial key, and the toy VET of a centre is
    every offset of length <= 4, so a change reaches exactly the centres
    within distance 4 of it (inclusive).  ``footprint`` follows the site
    store contract by brute force: per vacancy whose VET holds a point, its
    key, the offset's index and a species of 0.
    """

    REACH = 4

    def __init__(self, keys, periodic=None):
        self.vacancies = set(keys)
        self.periodic = periodic
        r = range(-self.REACH, self.REACH + 1)
        self.offsets = [
            (x, y, z) for x in r for y in r for z in r
            if x * x + y * y + z * z <= self.REACH ** 2
        ]

    def footprint(self, points_half):
        hits = []
        for point in np.asarray(points_half).reshape(-1, 3).tolist():
            for pos, offset in enumerate(self.offsets):
                centre = tuple(p - o for p, o in zip(point, offset))
                if self.periodic is not None:
                    centre = tuple(c % n for c, n in zip(centre, self.periodic))
                if centre in self.vacancies:
                    hits.append((centre, pos))
        keys = [centre for centre, _ in hits]
        positions = np.array([pos for _, pos in hits], dtype=np.int64)
        return keys, positions, np.zeros(len(hits), dtype=np.uint8)


class _StubBuilder:
    """The kernel's miss contract over canned rate rows.

    ``build_entries`` plans every region row of every stale slot, the
    builder's own ``evaluator`` rates the rows zero, and ``splice`` stores
    them — which leaves the slots delta-ready — and returns the canned
    rates.  Every plan and patch is recorded.  ``sites`` is a
    :class:`_StubSites` over the initial keys.
    """

    tet = SimpleNamespace(n_all=3, n_region=2)

    def __init__(self, rates_by_key, periodic=None):
        self.rates_by_key = rates_by_key
        self.sites = _StubSites(rates_by_key, periodic)
        self.evaluator = self
        self.built = []
        self.patched = []

    def build_entries(self, slots, members=None):
        self.built.append(np.asarray(slots).tolist())
        n, n_region = len(slots), self.tet.n_region
        return RefreshPlan(
            np.asarray(slots), np.zeros((n, self.tet.n_all), dtype=np.uint8),
            np.repeat(np.arange(n), n_region), np.tile(np.arange(n_region), n),
            (self,), [0, n],
        )

    def evaluate_batch_segments(self, segments):
        return [np.zeros((len(pair_b), 9)) for _, pair_b, _ in segments]

    def splice(self, plan, rows):
        self.cache.store_batch(plan.slots, plan.pair_b, plan.pair_r, rows)
        keys = self.cache.keys_of(plan.slots)
        return np.array([self.rates_by_key[key] for key in keys])

    def patch_entries(self, slots, positions, species):
        self.patched.append(slots.tolist())


def _toy_kernel(rates_by_key, periodic=None, builder=None, **kwargs):
    return EventKernel(
        builder or _StubBuilder(rates_by_key, periodic=periodic),
        keys=sorted(rates_by_key),
        **kwargs,
    )


def _row(total):
    row = np.zeros(8)
    row[0] = total
    return row


def test_kernel_refresh_and_select():
    rates = {(0, 0, 0): _row(1.0), (10, 0, 0): _row(3.0)}
    kernel = _toy_kernel(rates)
    kernel.refresh()
    assert kernel.total == pytest.approx(4.0)
    slot, direction = kernel.select(2.0)
    assert kernel.key_of(slot) == (10, 0, 0)
    assert direction == 0
    counters = kernel.counters()
    assert counters["cache_misses"] == 2
    assert counters["selections"] == 1
    assert counters["selection_depth"] > 0
    assert counters["rates_evaluated"] == 16


def test_kernel_dynamic_add_remove_recycles_slots():
    rates = {(0, 0, 0): _row(1.0), (10, 0, 0): _row(2.0)}
    kernel = _toy_kernel(rates)
    kernel.refresh()
    slot0 = kernel.slot_of((0, 0, 0))
    kernel.remove(slot0)
    assert kernel.total == pytest.approx(2.0)
    rates[(5, 5, 5)] = _row(7.0)
    new_slot = kernel.add((5, 5, 5))
    assert new_slot == slot0  # free-list reuse
    kernel.refresh()
    assert kernel.total == pytest.approx(9.0)
    # Growth past the initial capacity re-anchors everything correctly.
    for i in range(1, 9):
        rates[(i, 9, 9)] = _row(1.0)
        kernel.add((i, 9, 9))
    kernel.refresh()
    assert kernel.total == pytest.approx(17.0)
    assert kernel.store.n_slots >= 10


def test_kernel_invalidate_near_matches_distance_rule():
    rates = {(0, 0, 0): _row(1.0), (3, 0, 0): _row(1.0), (9, 0, 0): _row(1.0)}
    kernel = _toy_kernel(rates)
    kernel.refresh()
    n = kernel.invalidate_near(np.array([[1, 0, 0]]))
    # Reach 4: slots at distance 1 and 2 go stale, distance 8 survives
    assert n == 2
    stale = {kernel.key_of(s) for s in kernel.stale_batch().tolist()}
    assert stale == {(0, 0, 0), (3, 0, 0)}
    kernel.refresh()
    assert kernel.counters()["cache_hits"] >= 1
    assert kernel.total == pytest.approx(3.0)


def test_kernel_invalidation_reach_is_inclusive():
    rates = {(0, 0, 0): _row(1.0), (4, 0, 0): _row(1.0), (5, 0, 0): _row(1.0)}
    kernel = _toy_kernel(rates)
    kernel.refresh()
    # (4,0,0) sits exactly at the footprint's reach, so its VET holds the
    # change; (5,0,0) stays fresh.
    assert kernel.invalidate_near(np.array([[0, 0, 0]])) == 2
    assert kernel.stale_batch().tolist() == [0, 1]


def test_kernel_invalidation_skips_parked_slots():
    rates = {(0, 0, 0): _row(1.0), (1, 0, 0): _row(1.0), (2, 0, 0): _row(1.0)}
    kernel = _toy_kernel(rates)
    kernel.refresh()
    kernel.remove(1)
    assert kernel.invalidate_near(np.array([[0, 0, 0]])) == 2
    assert kernel.stale_batch().tolist() == [0, 2]


def test_kernel_invalidation_does_not_recount_stale_slots():
    rates = {(0, 0, 0): _row(1.0), (1, 0, 0): _row(1.0)}
    kernel = _toy_kernel(rates)
    kernel.refresh()
    assert kernel.invalidate_near(np.array([[0, 0, 0]])) == 2
    # A second hit on an already-stale registry invalidates nothing new.
    assert kernel.invalidate_near(np.array([[0, 0, 0]])) == 0
    assert kernel.cache.stats.invalidations == 2


@pytest.mark.parametrize("use_cache", (True, False), ids=("cache", "no-cache"))
@pytest.mark.parametrize("patch", (True, False), ids=("patch", "no-patch"))
@pytest.mark.parametrize("batched", (True,), ids=("batch-delta",))
def test_miss_path_follows_the_wiring(batched, patch, use_cache):
    """One builder serves every miss.

    Each refresh hands the whole stale set to ``build_entries`` in one
    call — every live slot when the cache is off.  Every refresh leaves
    its slots delta-ready (``batched``: the one contract left), so an
    invalidation (``patch``) hands the hit slots to ``patch_entries``."""
    rates = {(0, 0, 0): _row(1.0), (10, 0, 0): _row(3.0)}
    builder = _StubBuilder(rates)
    kernel = _toy_kernel(rates, builder=builder, use_cache=use_cache)
    kernel.refresh()
    assert builder.built == [[0, 1]]
    assert kernel.cache.delta_ready[:2].tolist() == [batched] * 2
    if patch:
        assert kernel.invalidate_near(np.array([[1, 0, 0]])) == 1
    assert builder.patched == ([[0]] if patch else [])
    kernel.refresh()
    second = [[0, 1]] if not use_cache else [[0]] if patch else []
    assert builder.built[1:] == second
    assert kernel.total == pytest.approx(4.0)


def test_kernel_periodic_invalidation_wraps():
    rates = {(0, 0, 0): _row(1.0), (10, 0, 0): _row(1.0)}
    kernel = _toy_kernel(rates, periodic=(21, 21, 21))
    kernel.refresh()
    # 20 is distance 1 from 0 across the wrap (and 10 from the middle slot).
    n = kernel.invalidate_near(np.array([[20, 0, 0]]))
    assert n == 1
    assert {kernel.key_of(s) for s in kernel.stale_batch().tolist()} == {(0, 0, 0)}


def test_kernel_active_set_restricts_selection():
    rates = {(0, 0, 0): _row(1.0), (10, 0, 0): _row(3.0)}
    kernel = _toy_kernel(rates)
    kernel.refresh()
    kernel.set_active([kernel.slot_of((0, 0, 0))])
    kernel.refresh()
    assert kernel.total == pytest.approx(1.0)
    slot, _ = kernel.select(0.5)
    assert kernel.key_of(slot) == (0, 0, 0)
    kernel.deactivate(slot)
    assert kernel.total == 0.0
    kernel.set_active(None)
    assert kernel.total == pytest.approx(4.0)


def test_kernel_set_keys_resyncs_index():
    rates = {(0, 0, 0): _row(1.0), (10, 0, 0): _row(3.0)}
    kernel = _toy_kernel(rates)
    kernel.refresh()
    kernel.set_keys([(10, 0, 0), (0, 0, 0)])  # swapped slot order
    assert kernel.key_of(0) == (10, 0, 0)
    kernel.refresh()
    assert kernel.total == pytest.approx(4.0)
    kernel.invalidate_near(np.array([[1, 0, 0]]))
    assert {kernel.key_of(s) for s in kernel.stale_batch().tolist()} == {(0, 0, 0)}


# ----------------------------------------------------------------------
# refresh_many: the one refresh of every driver, on real engines
# ----------------------------------------------------------------------
def _ladder(potential, tet):
    """Three engines of one seed at three temperatures, each a few events
    in (so they hold snapshots and stale slots), the middle one then
    refreshed so it has nothing stale."""
    factory = alloy_engine_factory(6, potential, tet, cu_fraction=0.05)
    engines = [factory(spec) for spec in temperature_ladder(
        [600.0, 900.0, 1200.0], seed=3
    )]
    for engine in engines:
        engine.run(n_steps=4)
    engines[1].kernel.refresh()
    return engines


@pytest.mark.parametrize("pot", ["eam_small", "nnp_small"])
def test_refresh_many_equals_separate_refreshes(request, tet_small, pot):
    """One fused refresh over the ladder, followed by each kernel's own
    (which finds nothing stale and counts the reuses), stores exactly the
    bits and counters that one refresh per kernel stores: a miss per stale
    slot, a hit per other live slot."""
    potential = request.getfixturevalue(pot)
    fused, solo = _ladder(potential, tet_small), _ladder(potential, tet_small)
    n_stale = [e.kernel.stale_batch().size for e in fused]
    assert [n > 0 for n in n_stale] == [True, False, True]
    plans = refresh_many([e.kernel for e in fused])
    assert len(plans) == 2
    for engine in fused:
        engine.kernel.refresh()
    for engine, n in zip(solo, n_stale):
        before = engine.kernel.counters()
        engine.kernel.refresh()
        after = engine.kernel.counters()
        assert after["cache_misses"] - before["cache_misses"] == n
        hits = after["cache_hits"] - before["cache_hits"]
        assert hits == engine.kernel.cache.n_live - n
    for a, b in zip(fused, solo):
        ca, cb = a.kernel.cache, b.kernel.cache
        live = np.flatnonzero(ca.live)
        assert np.array_equal(live, np.flatnonzero(cb.live))
        assert np.array_equal(ca.rates, cb.rates)
        assert np.array_equal(ca.total_rates, cb.total_rates)
        assert np.array_equal(ca.row_energies[live], cb.row_energies[live])
        assert a.kernel.total == b.kernel.total
        assert a.kernel.counters() == b.kernel.counters()


# ----------------------------------------------------------------------
# The slot pool: one refresh pass over many registries
# ----------------------------------------------------------------------
def _pool_ladder(potential, tet, vacancy_fraction=0.01, seed=3):
    """Like :func:`_ladder`, with a few vacancies per engine."""
    factory = alloy_engine_factory(
        6, potential, tet, cu_fraction=0.05, vacancy_fraction=vacancy_fraction
    )
    engines = [factory(spec) for spec in temperature_ladder(
        [600.0, 900.0, 1200.0], seed=seed
    )]
    for engine in engines:
        engine.run(n_steps=4)
    engines[1].kernel.refresh()
    return engines


def _pooled(engines, tet):
    pool = SlotPool(tet.n_all, tet.n_region)
    for engine in engines:
        pool.admit(engine.kernel.cache)
    return pool


def _assert_same_kernels(pooled, solo):
    """Bitwise: rates, their sums, live row energies, the propensity
    total and every counter."""
    for a, b in zip(pooled, solo):
        ca, cb = a.kernel.cache, b.kernel.cache
        n = cb.n_slots
        live = np.flatnonzero(cb.live)
        assert ca.n_slots == n
        assert np.array_equal(np.flatnonzero(ca.live), live)
        assert np.array_equal(ca.rates[:n], cb.rates[:n])
        assert np.array_equal(ca.total_rates[:n], cb.total_rates[:n])
        assert np.array_equal(ca.fresh[:n], cb.fresh[:n])
        assert np.array_equal(ca.delta_ready[:n], cb.delta_ready[:n])
        if live.size and cb.delta_ready[live].any():
            assert np.array_equal(ca.row_energies[live], cb.row_energies[live])
        assert a.kernel.total == b.kernel.total
        assert a.kernel.counters() == b.kernel.counters()


def _refresh_all(pooled, solo):
    """One pooled ``refresh_many`` against one refresh per solo kernel,
    then every kernel's own refresh (which finds nothing stale)."""
    n_stale = sum(e.kernel.stale_batch().size for e in solo)
    plans = refresh_many([e.kernel for e in pooled])
    assert sum(p.slots.size for p in plans) == n_stale
    assert len(plans) == (1 if n_stale else 0)
    for engine in pooled + solo:
        engine.kernel.refresh()


@pytest.mark.parametrize("pot", ["eam_small", "nnp_small"])
def test_pooled_refresh_equals_solo_refreshes(request, tet_small, pot):
    """A pool of the ladder's three registries refreshes in one pass —
    one stale sweep, one plan, one store — and leaves exactly the bits and
    counters of three solo refreshes; the replicas then step on from the
    pool (each step's refresh sweeping its own block) like solo runs."""
    potential = request.getfixturevalue(pot)
    pooled = _pool_ladder(potential, tet_small)
    solo = _pool_ladder(potential, tet_small)
    pool = _pooled(pooled, tet_small)
    assert [e.kernel.cache._base for e in pooled] == [0, 4, 8]
    _assert_same_kernels(pooled, solo)
    _refresh_all(pooled, solo)
    _assert_same_kernels(pooled, solo)
    for engine in pooled + solo:
        engine.run(n_steps=3)
    for a, b in zip(pooled, solo):  # a member's own stale slots, keyed
        stale = [a.kernel.key_of(s) for s in a.kernel.stale_batch().tolist()]
        assert stale == [b.kernel.key_of(s)
                         for s in b.kernel.stale_batch().tolist()]
    _refresh_all(pooled, solo)
    _assert_same_kernels(pooled, solo)
    assert all(e.kernel.cache.pool is pool for e in pooled)


@pytest.mark.parametrize("pot", ["eam_small", "nnp_small"])
def test_pool_hot_swap_and_repool(request, tet_small, pot):
    """A freed block is dropped when the next newcomer makes the pool lay
    its members out afresh, whatever the newcomer's size.  Every member
    keeps its state and the pooled refresh stays equal to solo ones."""
    potential = request.getfixturevalue(pot)
    pooled = _pool_ladder(potential, tet_small)
    solo = _pool_ladder(potential, tet_small)
    pool = _pooled(pooled, tet_small)
    _refresh_all(pooled, solo)

    # Hot swap: a newcomer of the freed block's size.
    gone = pooled.pop(1)
    solo.pop(1)
    pool.release(gone.kernel.cache)
    assert gone.kernel.cache.pool is not pool
    assert np.shares_memory(gone.kernel.cache.live, pool.live)  # no copy
    newcomer, twin = (
        _pool_ladder(potential, tet_small, seed=5)[2] for _ in range(2)
    )
    pool.admit(newcomer.kernel.cache)
    assert [e.kernel.cache._base for e in pooled + [newcomer]] == [0, 4, 8]
    pooled.append(newcomer)
    solo.append(twin)
    _assert_same_kernels(pooled, solo)
    _refresh_all(pooled, solo)
    _assert_same_kernels(pooled, solo)

    # A larger newcomer.
    pool.release(pooled.pop(0).kernel.cache)
    solo.pop(0)
    big, big_twin = (
        _pool_ladder(potential, tet_small, vacancy_fraction=0.03)[0]
        for _ in range(2)
    )
    assert big.kernel.cache.n_slots > 4
    pool.admit(big.kernel.cache)
    assert pool.live.size == 8 + big.kernel.cache.n_slots
    for engine in pooled + [big]:
        assert np.shares_memory(engine.kernel.cache.live, pool.live)
    pooled.append(big)
    solo.append(big_twin)
    _assert_same_kernels(pooled, solo)
    for engine in pooled + solo:
        engine.run(n_steps=2)
    _refresh_all(pooled, solo)
    _assert_same_kernels(pooled, solo)


def test_pooled_memory_counts_each_block(tet_small, eam_small):
    """A pooled cache's ``memory_bytes`` counts its own block — equal to
    its solo twin's — and the members' sum is the count over the pool."""
    pooled = _pool_ladder(eam_small, tet_small)
    solo = _pool_ladder(eam_small, tet_small)
    pool = _pooled(pooled, tet_small)
    _refresh_all(pooled, solo)
    pooled[0].run(n_steps=1)  # one member stale, patched snapshots kept
    solo[0].run(n_steps=1)
    sizes = [e.kernel.cache.memory_bytes() for e in pooled]
    assert sizes == [e.kernel.cache.memory_bytes() for e in solo]
    assert sum(sizes) == pool.memory_bytes() > 0
    pool.release(pooled[0].kernel.cache)  # a freed block holds nothing
    assert pooled[0].kernel.cache.memory_bytes() == sizes[0]
    assert pool.memory_bytes() == sum(sizes[1:])


def test_non_finite_energy_names_the_vacancy(tet_small):
    from repro.nnp import ElementNetworks, NNPotential
    from repro.potentials import FeatureTable

    table = FeatureTable(tet_small.shell_distances)
    nets = ElementNetworks(
        (2 * table.n_dim, 16, 8, 1), np.random.default_rng(3)
    )
    for net in nets.nets.values():
        net.biases[-1][:] = np.nan
    model = NNPotential(table, nets, rcut=2.87)
    engine = alloy_engine_factory(6, model, tet_small, cu_fraction=0.05)(
        temperature_ladder([600.0], seed=3)[0]
    )
    first = engine.kernel.key_of(int(engine.kernel.stale_batch()[0]))
    with pytest.raises(ValueError, match="non-finite row energy") as err:
        engine.step()
    assert re.search(
        rf"region row \d+, trial state \d+ \(vacancy {first}\)$",
        str(err.value),
    ), str(err.value)


def test_pooled_non_finite_energy_names_the_replica(tet_small):
    """In a pooled round the first bad row is the first stale slot of the
    first kernel passed, whatever the block order: the error names that
    replica's vacancy, not the one at the same slot of another block."""
    from repro.nnp import ElementNetworks, NNPotential
    from repro.potentials import FeatureTable

    table = FeatureTable(tet_small.shell_distances)
    nets = ElementNetworks(
        (2 * table.n_dim, 16, 8, 1), np.random.default_rng(3)
    )
    for net in nets.nets.values():
        net.biases[-1][:] = np.nan
    model = NNPotential(table, nets, rcut=2.87)
    factory = alloy_engine_factory(
        6, model, tet_small, cu_fraction=0.05, vacancy_fraction=0.01
    )
    first, second = (
        factory(spec) for spec in temperature_ladder([600.0], seed=3)
        + temperature_ladder([900.0], seed=8)
    )
    _pooled([first, second], tet_small)
    want = second.kernel.key_of(0)
    assert want != first.kernel.key_of(0)
    with pytest.raises(ValueError, match="non-finite row energy") as err:
        refresh_many([second.kernel, first.kernel])
    assert str(err.value).endswith(f"(vacancy {want})"), str(err.value)


def test_vet_centre_check_names_the_key(tet_small, eam_small):
    engine = alloy_engine_factory(6, eam_small, tet_small, cu_fraction=0.05)(
        temperature_ladder([600.0], seed=3)[0]
    )
    engine.run(n_steps=2)
    site = engine.kernel.key_of(engine.kernel.live_slots()[-1])
    engine.lattice.occupancy[site] = FE
    engine.kernel.invalidate_all()
    with pytest.raises(ValueError, match="every VET centre") as err:
        engine.step()
    assert f"vacancy {site} " in str(err.value)
