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
with ``build_entries(keys, slots)``, ``patch_entries(slots, positions,
species)`` and the site store as ``sites`` (whose ``footprint`` the
invalidation runs), the :class:`~repro.core.delta.DeltaRebuilder` in every
engine.  The event body that drives a kernel is written once, in
:func:`repro.core.loop.kmc_event`.

Refresh and activation run as array sweeps over the cache's slot arrays.

Every kernel operation feeds the shared instrumentation counters
(:class:`KernelStats` + the cache's hit/rebuild stats), which the engines
surface through ``summary()`` and the parallel driver threads into
:class:`~repro.parallel.engine.CycleStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

import numpy as np

from .propensity import FenwickPropensity
from .vacancy_cache import BatchEntries, VacancyCache

__all__ = [
    "NoMovesError",
    "KernelStats",
    "EventKernel",
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
        The miss path: ``build_entries(keys, slots)`` returns the stale
        slots' entries in slot order — a
        :class:`~repro.core.vacancy_cache.BatchEntries` (rates plus the
        snapshot that makes the slots delta-ready) or a bare ``(B, 8)``
        rate matrix (rates only) — and ``patch_entries(slots, positions,
        species)`` scatters an invalidation's changes into the stored VET
        snapshots of delta-ready slots (this is how invalidation carries
        *what* changed instead of just *that* something changed).
        ``builder.sites`` is the driver's site store, whose
        ``footprint(points_half)`` the invalidation runs (see
        :mod:`repro.core.loop`).  The kernel hands the builder its cache as
        ``builder.cache``.  Every engine passes a
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
        self.cache = VacancyCache(keys)
        builder.cache = self.cache
        self.store = FenwickPropensity(self.cache.n_slots)
        self.stats = KernelStats()
        #: Physical active mask, or ``None`` meaning "all live slots" (the
        #: serial engines); the parallel driver narrows it per sector.
        self._active_mask: Optional[np.ndarray] = None
        #: Optional row-energy cache whose counters this kernel reports
        #: (:class:`~repro.core.rowcache.RowEnergyCache`).  The kernel does
        #: not consult it — the evaluator does — it only folds the cache's
        #: hits/misses/evictions into :meth:`counters`/:meth:`summary` so
        #: engines and cycle stats see one counter namespace.  Left ``None``
        #: on parallel rank kernels: their evaluator (and cache) is shared,
        #: so the simulation merges the cache's counters exactly once.
        self.row_cache = None
        # Slots :meth:`apply_refresh` stored since the last refresh: they
        # are that refresh's misses, not its reuses.
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
    def stale_batch(self) -> np.ndarray:
        """Active stale slots, ascending, *without* rebuilding them.

        This is the read-only prologue of :meth:`refresh`: cache-off
        semantics are applied (``use_cache=False`` drops every entry first)
        and the sector mask narrows the candidates, but the builder does
        not run.  A caller that evaluates the batch externally — the
        cross-replica campaign funnels many kernels' stale sets into one
        fused potential call — hands the results back through
        :meth:`apply_refresh`.
        """
        if not self.use_cache:
            self.invalidate_all()
        stale_mask = self.cache.stale_mask()
        if self._active_mask is not None:
            stale_mask = stale_mask & self._active_mask
        return np.flatnonzero(stale_mask)  # ascending, like the sorted set

    def apply_refresh(self, stale: np.ndarray, entries) -> None:
        """Scatter externally built entries for a :meth:`stale_batch` result.

        ``entries`` follows the ``build_entries`` return contract and must
        line up with ``stale`` in slot order.  Stores, propensity updates,
        and the miss counters are identical to the in-kernel rebuild, so a
        trajectory driven through ``stale_batch`` + external evaluation +
        ``apply_refresh`` is bit-identical to one driven by :meth:`refresh`
        — only *where* the rows were evaluated differs.  Cache-hit (reuse)
        accounting stays with :meth:`refresh`, which the driver still calls
        afterwards: it finds these slots fresh and counts them as the
        misses they were, so the pair counts exactly like one refresh.
        """
        stale = np.asarray(stale, dtype=np.int64)
        self._store_entries(stale, entries)
        self._applied += int(stale.size)

    def refresh(self) -> None:
        """Bring every active slot up to date before selection.

        Only stale slots are rebuilt (O(|stale| log n)); fresh active slots
        count as cache hits.  Invalidation is deferred by design — slots
        only mark stale until the next selection — so the whole stale set
        goes through one ``builder.build_entries`` call here (post-hop,
        post-ghost exchange, and cold starts alike).
        """
        stale = self.stale_batch()
        cache = self.cache
        if self._active_mask is not None:
            n_active = int(np.count_nonzero(cache.live & self._active_mask))
        else:
            n_active = cache.n_live
        if stale.size:
            self._store_entries(
                stale, self.builder.build_entries(cache.keys_of(stale), stale)
            )
        reused = n_active - int(stale.size) - self._applied
        cache.stats.reuses += max(0, reused)
        self._applied = 0

    def _store_entries(self, stale: np.ndarray, entries) -> None:
        """Scatter built entries into the cache + one propensity sweep."""
        n = len(entries)
        if n != stale.size:
            raise RuntimeError(f"got {n} entries for {stale.size} stale slots")
        if stale.size == 0:
            return
        self.stats.rate_batches += 1
        self.stats.batched_rows += int(stale.size)
        self.stats.max_batch_size = max(self.stats.max_batch_size, int(stale.size))
        cache = self.cache
        if isinstance(entries, BatchEntries):
            cache.store_batch(stale, entries)
            self.stats.rates_evaluated += int(entries.rates.size)
        else:
            cache.store_rates(stale, entries)
            self.stats.rates_evaluated += int(entries.size)
        self.store.update_many(stale, cache.total_rates[stale])

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
            # Always present (0 without a cache) so per-cycle counter
            # deltas stay well-defined across configurations.
            **(
                self.row_cache.counters()
                if self.row_cache is not None
                else {
                    "row_cache_hits": 0,
                    "row_cache_misses": 0,
                    "row_cache_evictions": 0,
                }
            ),
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
        if self.row_cache is not None:
            out.update(self.row_cache.summary())
        return out
