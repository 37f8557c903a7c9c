"""Shared incremental event kernel — one engine core for every AKMC driver.

The paper's serial innovations (vacancy-system caching, tree-based propensity
selection, distance invalidation) and the parallel sublattice driver used to
live in separate implementations; this module owns them once:

* a keyed :class:`~repro.core.vacancy_cache.VacancyCache` holding per-vacancy
  rate rows in structure-of-arrays form (slot-stable, with a free list for
  dynamic populations),
* a :class:`~repro.core.propensity.FenwickPropensity` tree over the
  per-slot total rates for the two-level selection — vacancy slot via the
  tree, hop direction via the slot's cumulative rate row,
* stencil invalidation: the site store reads the TET backwards — the
  vacancy centred at ``p - o_i`` holds changed site ``p`` at VET position
  ``i`` — so one gather of occupancy at ``p - all_offsets`` and a probe of
  the few vacancy hits yield the exact ``(slot, VET position, species)``
  triples a change touches.  Per-event cost follows the TET size and the
  local vacancy density, not the size of the registry.

Drivers parameterise the kernel with one miss-path builder — an object
with ``build_entries(slots, members)`` (a refresh's plan), ``splice(plan,
rows)``, ``patch_entries(slots, positions, species)``, its ``evaluator``
and the site store as ``sites`` (whose ``footprint`` the invalidation
runs), the :class:`~repro.core.delta.DeltaRebuilder` in every engine.
Every refresh is :func:`refresh_many`, over one kernel or over a
campaign's replicas.  The event body that drives a kernel is written once,
in :func:`repro.core.loop.kmc_event`.

Refresh and activation run as array sweeps over the cache's slot arrays,
which are views of one block of a
:class:`~repro.core.vacancy_cache.SlotPool`: a kernel alone owns a pool of
one, and :func:`refresh_many` does its bookkeeping once per pool, so the
replicas of a campaign, which share one, are swept, planned, spliced and
stored in one pass.

Every kernel operation feeds the shared instrumentation counters
(:class:`KernelStats` + the cache's hit/rebuild stats), which the engines
surface through ``summary()`` and the parallel driver threads into
:class:`~repro.parallel.engine.CycleStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .propensity import FenwickPropensity
from .vacancy_cache import VacancyCache

__all__ = [
    "NoMovesError",
    "KernelStats",
    "EventKernel",
    "refresh_many",
    "select_direction",
]


class NoMovesError(RuntimeError):
    """Raised when no event can be executed (zero propensity / dead rate row)."""


def select_direction(rates: np.ndarray, remainder: float) -> int:
    """Hop direction from a per-direction rate row and a selection remainder.

    The remainder is ``u`` minus the cumulative propensity of all earlier
    slots (see :meth:`PropensityStore.select`); the direction is the first
    whose cumulative rate exceeds it.  Floating-point edge cases that land on
    the cumulative boundary are walked back onto the nearest direction with a
    positive rate; a row with *no* positive rate raises :class:`NoMovesError`
    instead of silently executing an impossible hop (a zero-rate direction
    encodes an invalid move, e.g. a vacancy-vacancy swap).
    """
    cum = np.cumsum(rates)
    direction = int(np.searchsorted(cum, remainder, side="right"))
    direction = min(direction, len(rates) - 1)
    while rates[direction] == 0.0 and direction > 0:
        direction -= 1
    if rates[direction] == 0.0:
        nonzero = np.flatnonzero(rates)
        if nonzero.size == 0:
            raise NoMovesError("selected rate row has no executable direction")
        direction = int(nonzero[0])
    return direction


def refresh_many(kernels: Sequence["EventKernel"]) -> list:
    """Refresh many kernels' stale slots through one potential call.

    The kernels are grouped by the :class:`~repro.core.vacancy_cache.SlotPool`
    their caches live in (a campaign's replicas share one; a kernel alone
    has a pool of one).  Per pool, the first member's
    :meth:`EventKernel.stale_batch` sweeps every member's stale slots and
    its builder plans them (``builder.build_entries``), both in one pass
    over the pool; then one ``evaluate_batch_segments`` call over every
    pool's plan, by the first kernel's evaluator, so row dedup spans the
    kernels; then one :meth:`EventKernel.apply_refresh` per pool.  A
    pool's slots are ordered member-major in ``kernels`` order, so when
    each pool's kernels are adjacent in ``kernels`` the stacked rows are
    those of one plan per kernel, concatenated.  The kernels' evaluators
    must be batch-compatible (a campaign checks each replica's at
    admission).  :meth:`EventKernel.refresh` is this over one kernel.
    Returns the plans, one per pool with stale slots.

    A non-finite row energy is re-raised naming its vacancy's key, found
    from the error's ``batch_row`` (a row of the stacked plans' VETs).
    """
    pools: Dict[object, List["EventKernel"]] = {}
    for kernel in kernels:
        pools.setdefault(kernel.cache.pool, []).append(kernel)
    work = []
    for members in pools.values():
        lead = members[0]
        slots = lead.stale_batch(members)
        if slots.size:
            plan = lead.builder.build_entries(
                slots, [kernel.builder for kernel in members]
            )
            work.append((members, plan))
    if not work:
        return []
    plans = [plan for _, plan in work]
    try:
        rows = work[0][0][0].builder.evaluator.evaluate_batch_segments(
            [(p.vets, p.pair_b, p.pair_r) for p in plans]
        )
    except ValueError as err:
        row = getattr(err, "batch_row", None)
        if row is None:
            raise
        for members, plan in work:
            if row < plan.slots.size:
                key = members[0].cache.pool.key_of(int(plan.slots[row]))
                raise ValueError(f"{err} (vacancy {key!r})") from err
            row -= plan.slots.size
        raise
    for (members, plan), r in zip(work, rows):
        members[0].apply_refresh(plan, r, members)
    return plans


@dataclass
class KernelStats:
    """Selection-side instrumentation (cache counters live on the cache)."""

    selections: int = 0
    selection_depth: int = 0
    rates_evaluated: int = 0
    #: Miss-path accounting: number of refresh batches stored, total rate
    #: rows they produced, and the largest single batch.
    rate_batches: int = 0
    batched_rows: int = 0
    max_batch_size: int = 0
    #: ``invalidate_near`` calls that ran the stencil and its vacancy hits
    #: (before the registry probe) — the "flat in N" witness: their ratio
    #: follows the local density, not the registry.
    invalidate_calls: int = 0
    invalidation_candidates: int = 0


class EventKernel:
    """The shared event core: rate cache + two-level selection + invalidation.

    Parameters
    ----------
    builder:
        The miss path.  ``build_entries(slots, members)`` plans the
        refresh of the stale pool slots of ``members`` (the builders of the
        pool's kernels being refreshed) — a
        :class:`~repro.core.delta.RefreshPlan` of ``slots``, their
        ``vets``, the ``(pair_b, pair_r)`` rows to re-rate, which
        ``builder.evaluator`` evaluates, and each member's run of the
        slots — and ``splice(plan, rows)`` stores the rows in the pool's
        snapshot slab and returns the slots' ``(B, 8)`` rates.
        ``patch_entries(slots, positions, species)`` scatters an
        invalidation's changes into the stored VET snapshots of
        delta-ready slots (this is how invalidation carries *what* changed
        instead of just *that* something changed).
        ``builder.sites`` is the driver's site store, whose
        ``footprint(points_half)`` the invalidation runs (see
        :mod:`repro.core.loop`).  The kernel sizes its cache's snapshot
        slabs from ``builder.evaluator.tet`` and hands the builder the cache
        as ``builder.cache``.  Every engine passes a
        :class:`~repro.core.delta.DeltaRebuilder`.
    keys:
        Initial vacancy keys, one slot each, in registry order.
    use_cache:
        When ``False`` every refresh first drops all entries and snapshots
        ("cache all" semantics: no reuse at all, the OpenKMC baseline), so
        the builder rebuilds every slot from scratch.
    """

    def __init__(
        self,
        builder,
        keys: Iterable[Hashable] = (),
        use_cache: bool = True,
    ) -> None:
        self.builder = builder
        self.use_cache = bool(use_cache)
        tet = builder.evaluator.tet
        self.cache = VacancyCache(keys, tet.n_all, tet.n_region)
        builder.cache = self.cache
        self.store = FenwickPropensity(self.cache.n_slots)
        self.stats = KernelStats()
        #: Physical active mask, or ``None`` meaning "all live slots" (the
        #: serial engines); the parallel driver narrows it per sector.
        self._active_mask: Optional[np.ndarray] = None
        # Slots :meth:`apply_refresh` stored since the last :meth:`refresh`
        # counted reuses: they are misses, not reuses.
        self._applied = 0

    def _pad_active_mask(self) -> None:
        """Keep the active mask aligned with the cache's physical arrays."""
        mask = self._active_mask
        if mask is not None and mask.shape[0] < self.cache.live.shape[0]:
            grown = np.zeros(self.cache.live.shape[0], dtype=bool)
            grown[: mask.shape[0]] = mask
            self._active_mask = grown

    # ------------------------------------------------------------------
    # Registry: dynamic vacancy populations
    # ------------------------------------------------------------------
    def key_of(self, slot: int) -> Hashable:
        return self.cache.key_of(slot)

    def slot_of(self, key: Hashable) -> Optional[int]:
        return self.cache.slot_of(key)

    def live_slots(self) -> List[int]:
        return self.cache.live_slots()

    def add(self, key: Hashable) -> int:
        """Register a vacancy; it starts stale (and inactive under a sector)."""
        slot = self.cache.add_slot(key)
        if slot >= self.store.n_slots:
            self.store.grow(max(slot + 1, 2 * self.store.n_slots))
        else:
            self.store.update(slot, 0.0)
        self._pad_active_mask()
        return slot

    def remove(self, slot: int) -> None:
        """Unregister a vacancy; its slot parks at zero propensity."""
        self.cache.remove_slot(slot)
        self.store.update(slot, 0.0)
        if self._active_mask is not None:
            self._active_mask[slot] = False

    def move(self, slot: int, new_key: Hashable) -> None:
        """A vacancy hopped: rekey the slot, invalidate it, park at zero."""
        self.cache.move(slot, new_key)
        self.store.update(slot, 0.0)

    def set_keys(
        self,
        keys: Iterable[Hashable],
        free_order: Optional[Iterable[int]] = None,
    ) -> None:
        """Reset the registry order (checkpoint restore); all slots go stale.

        ``None`` keys mark parked slots; ``free_order`` restores the free
        list's stack order (see :meth:`VacancyCache.set_keys`).
        """
        self.cache.set_keys(keys, free_order=free_order)
        self.store.resize(self.cache.n_slots)
        self._active_mask = None

    # ------------------------------------------------------------------
    # Sector activation (parallel sublattice protocol)
    # ------------------------------------------------------------------
    def set_active(self, slots: Optional[Iterable[int]]) -> None:
        """Restrict selection to ``slots`` (``None`` -> all live slots)."""
        cache = self.cache
        if slots is None:
            self._active_mask = None
            held = cache.live & cache.fresh
        else:
            mask = np.zeros(cache.live.shape[0], dtype=bool)
            idx = np.asarray(list(slots), dtype=np.int64)
            if idx.size:
                mask[idx] = True
            self._active_mask = mask
            held = cache.live & cache.fresh & mask
        # Parked/stale slots already sit at zero in the store, so writing
        # zeros there is a no-op on the tree bits (it is a pure function of
        # the values array) — one vectorised sweep covers every slot.
        n = cache.n_slots
        values = np.where(held, cache.total_rates, 0.0)
        self.store.update_many(np.arange(n, dtype=np.int64), values[:n])

    def deactivate(self, slot: int) -> None:
        """Drop a slot from the active set (it keeps its cache entry)."""
        if self._active_mask is None:
            self._active_mask = self.cache.live.copy()
        self._active_mask[slot] = False
        self.store.update(slot, 0.0)

    # ------------------------------------------------------------------
    # Refresh + selection
    # ------------------------------------------------------------------
    def stale_batch(
        self, members: Optional[Sequence["EventKernel"]] = None
    ) -> np.ndarray:
        """Active stale slots of ``members``, *without* rebuilding them:
        pool slots, ordered member-major with each member's ascending.
        Without ``members``: this kernel's own stale slots, as slots of
        its cache.

        The prologue of every refresh (:func:`refresh_many`), run by the
        first of the members, which share this kernel's pool: cache-off
        semantics are applied (``use_cache=False`` drops every entry
        first) and each member's sector mask narrows its candidates, but
        no builder runs.
        """
        own = members is None
        members = (self,) if own else members
        for kernel in members:
            if not kernel.use_cache:
                kernel.invalidate_all()
        if len(members) == 1:
            # One member needs no member sort, which would triple the
            # cost of this sweep on a small solo refresh.
            stale = self.cache.stale_mask()
            if self._active_mask is not None:
                stale &= self._active_mask
            slots = np.flatnonzero(stale)
            return slots if own else slots + self.cache._base
        pool = self.cache.pool
        stale = pool.live & ~pool.fresh
        for kernel in members:
            if kernel._active_mask is not None:
                base, cap = kernel.cache._base, kernel.cache._cap
                stale[base:base + cap] &= kernel._active_mask
        slots = np.flatnonzero(stale)
        rank = pool.ranks([kernel.cache for kernel in members])[
            pool.owner[slots]
        ]
        order = np.argsort(rank, kind="stable")
        return slots[order[np.count_nonzero(rank < 0):]]

    def apply_refresh(self, plan, rows: np.ndarray, members=None) -> None:
        """Store a planned refresh of ``members`` (default: this kernel
        alone) from its re-rated ``(P, 9)`` rows.

        ``builder.splice`` puts the rows into the pool's snapshot slab and
        returns the slots' rates; they go into the pool in one
        ``store_rates``.  Then each member updates its propensity tree and
        counters from its run ``plan.bounds`` of the slots, which count as
        misses of its next :meth:`refresh`, which counts reuses.
        """
        members = (self,) if members is None else members
        slots = plan.slots
        rates = self.builder.splice(plan, rows)
        self.cache.store_rates(slots, rates)
        totals = self.cache.pool.total_rates
        bounds = plan.bounds
        for kernel, lo, hi in zip(members, bounds[:-1], bounds[1:]):
            n = hi - lo
            if not n:
                continue
            mine = slots[lo:hi]
            kernel.store.update_many(mine - kernel.cache._base, totals[mine])
            kernel.cache.stats.rebuilds += n
            stats = kernel.stats
            stats.rate_batches += 1
            stats.batched_rows += n
            stats.max_batch_size = max(stats.max_batch_size, n)
            stats.rates_evaluated += n * rates.shape[1]
            kernel._applied += n

    def refresh(self) -> None:
        """Bring every active slot up to date before selection.

        Only stale slots are rebuilt, through :func:`refresh_many` over this
        kernel alone; fresh active slots count as cache hits.  Invalidation
        is deferred by design — slots only mark stale until the next
        selection — so the whole stale set is one plan (post-hop, post-ghost
        exchange, and cold starts alike).
        """
        cache = self.cache
        if self._active_mask is not None:
            n_active = int(np.count_nonzero(cache.live & self._active_mask))
        else:
            n_active = cache.n_live
        refresh_many([self])
        cache.stats.reuses += max(0, n_active - self._applied)
        self._applied = 0

    @property
    def total(self) -> float:
        """Current total propensity over the active slots."""
        return self.store.total

    def select(self, u: float) -> Tuple[int, int]:
        """Two-level selection: slot via the store, direction via its row.

        Returns ``(slot, direction)``; the rate row is read straight from
        the cache arrays.  Raises :class:`NoMovesError` when a numerical
        boundary lands on a slot with no executable direction (e.g. a
        parked slot reached through the tree's clamp).
        """
        slot, remainder = self.store.select(u)
        cache = self.cache
        if not (cache.live[slot] and cache.fresh[slot]):
            raise NoMovesError(f"selection landed on empty slot {slot}")
        direction = select_direction(cache.rates[slot], remainder)
        self.stats.selections += 1
        self.stats.selection_depth += self.store.last_select_depth
        return slot, direction

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def invalidate_near(self, points_half) -> int:
        """Invalidate the cached entries whose VET holds a changed site.

        ``points_half`` is an ``(n, 3)`` array (or nested sequence) of
        half-unit coordinates in the site store's space (Sec. 3.2).  The
        store's ``footprint`` reads the TET backwards and hands back every
        vacancy whose VET holds one of them, with the VET position and the
        site's current species; the registry probe turns those into
        ``(slot, position, species)`` triples.  Fresh hit slots go stale;
        the triples of delta-ready hit slots — stale ones too — go to
        ``builder.patch_entries``, which keeps the snapshots in sync with
        the lattice between refreshes.  Returns the number of entries
        invalidated.

        A registry where no slot holds a fresh entry or a snapshot (most
        ghost exchanges) has nothing to lose and returns at once.
        """
        cache = self.cache
        if len(points_half) == 0 or not (
            cache.fresh.any() or cache.delta_ready.any()
        ):
            return 0
        keys, positions, species = self.builder.sites.footprint(points_half)
        self.stats.invalidate_calls += 1
        self.stats.invalidation_candidates += len(keys)
        slots = cache.slots_of(keys)  # -1 where the vacancy holds no slot
        held = slots >= 0
        ready = held & cache.delta_ready[slots]
        if ready.any():
            # Patch before anything reads the snapshots again.
            self.builder.patch_entries(
                slots[ready], positions[ready], species[ready]
            )
        fresh_hits = set(slots[held & cache.fresh[slots]].tolist())
        cache.fresh[list(fresh_hits)] = False
        cache.stats.invalidations += len(fresh_hits)
        return len(fresh_hits)

    def invalidate_all(self) -> None:
        """Drop every live entry (cache-off mode / global resync)."""
        self.cache.invalidate_all()

    # ------------------------------------------------------------------
    # Instrumentation
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Snapshot of every monotonic counter (for per-cycle deltas)."""
        return {
            "cache_hits": self.cache.stats.reuses,
            "cache_misses": self.cache.stats.rebuilds,
            "invalidations": self.cache.stats.invalidations,
            "rates_evaluated": self.stats.rates_evaluated,
            "selections": self.stats.selections,
            "selection_depth": self.stats.selection_depth,
            "rate_batches": self.stats.rate_batches,
            "batched_rows": self.stats.batched_rows,
        }

    def summary(self) -> Dict[str, float]:
        """One merged set of counters for benchmarks and reports."""
        out = dict(self.cache.summary())
        out["cache_hits"] = out.pop("reuses")
        out["cache_misses"] = out.pop("rebuilds")
        out["rates_evaluated"] = self.stats.rates_evaluated
        out["selections"] = self.stats.selections
        out["selection_depth"] = self.stats.selection_depth
        out["mean_selection_depth"] = (
            self.stats.selection_depth / self.stats.selections
            if self.stats.selections
            else 0.0
        )
        out["rate_batches"] = self.stats.rate_batches
        out["batched_rows"] = self.stats.batched_rows
        out["max_batch_size"] = self.stats.max_batch_size
        out["mean_batch_size"] = (
            self.stats.batched_rows / self.stats.rate_batches
            if self.stats.rate_batches
            else 0.0
        )
        out["mean_invalidation_candidates"] = (
            self.stats.invalidation_candidates / self.stats.invalidate_calls
            if self.stats.invalidate_calls
            else 0.0
        )
        return out
