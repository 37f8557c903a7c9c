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
* cell-narrowed distance invalidation: an always-maintained
  :class:`SpatialHashIndex` (cell edge = one invalidation reach) hands back
  the slots in the cells around each changed position, and one vectorised
  (periodic minimum-image, where configured) distance test runs over those
  candidates only — per-event cost follows the local vacancy density, not
  the size of the registry.

Drivers parameterise the kernel with one miss-path builder — an object
with ``build_entries(keys, slots)`` and ``patch_entries(slots, points)``,
the :class:`~repro.core.delta.DeltaRebuilder` in every engine — and
``position_of(key)`` mapping a key to integer half-unit coordinates, plus
the distance semantics (periodic for the global serial lattice, open for a
rank's padded window).  The event body that drives a kernel is written
once, in :func:`repro.core.loop.kmc_event`.

Refresh and activation run as array sweeps over the cache's slot arrays.

Every kernel operation feeds the shared instrumentation counters
(:class:`KernelStats` + the cache's hit/rebuild stats), which the engines
surface through ``summary()`` and the parallel driver threads into
:class:`~repro.parallel.engine.CycleStats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .propensity import FenwickPropensity
from .vacancy_cache import BatchEntries, VacancyCache

__all__ = [
    "NoMovesError",
    "KernelStats",
    "SpatialHashIndex",
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
    #: Non-empty ``invalidate_near`` calls and the slots the cell index
    #: handed them (before the held/distance filters) — the "flat in N"
    #: witness: their ratio follows the local density, not the registry.
    invalidate_calls: int = 0
    invalidation_candidates: int = 0


class SpatialHashIndex:
    """Cell index of slot positions in integer half-unit coordinates.

    Cells have an edge of one invalidation reach, so every position within
    the reach of a query point lies in one of the (at most three per axis,
    four where a periodic dimension is not a multiple of the edge) cells
    around it — :meth:`candidates_near` returns that superset and the kernel
    applies the exact distance test.  Plain Python ints, dicts and lists: an
    event inserts, moves or queries a handful of slots, which is cheaper
    without array dispatch.
    """

    def __init__(
        self, bucket_half: int, periodic_half: Optional[Sequence[int]] = None
    ) -> None:
        self.bucket = max(1, int(bucket_half))
        self.periodic: Optional[Tuple[int, int, int]] = (
            None
            if periodic_half is None
            else tuple(int(d) for d in periodic_half)
        )
        self._cells: Dict[Tuple[int, int, int], List[int]] = {}
        self._cell_of: Dict[int, Tuple[int, int, int]] = {}

    def __len__(self) -> int:
        return len(self._cell_of)

    def canonical(self, half) -> Tuple[int, int, int]:
        """A half-unit position as Python ints, wrapped into the box."""
        x, y, z = half
        if self.periodic is not None:
            dx, dy, dz = self.periodic
            x, y, z = x % dx, y % dy, z % dz
        return (int(x), int(y), int(z))

    def cell(self, half) -> Tuple[int, int, int]:
        """Cell of a (not necessarily canonical) half-unit position."""
        x, y, z = self.canonical(half)
        b = self.bucket
        return (x // b, y // b, z // b)

    def cell_of(self, slot: int) -> Optional[Tuple[int, int, int]]:
        """Cell a slot is indexed in, or ``None``."""
        return self._cell_of.get(slot)

    def cells(self):
        """``(cell, member slots)`` pairs of every occupied cell."""
        return self._cells.items()

    def insert(self, slot: int, half) -> None:
        """Index ``slot`` at ``half``; a slot already indexed moves there."""
        cell = self.cell(half)
        old = self._cell_of.get(slot)
        if old == cell:
            return
        if old is not None:
            self.remove(slot)
        self._cells.setdefault(cell, []).append(slot)
        self._cell_of[slot] = cell

    def remove(self, slot: int) -> None:
        cell = self._cell_of.pop(slot)
        members = self._cells[cell]
        members.remove(slot)
        if not members:
            del self._cells[cell]

    def clear(self) -> None:
        self._cells.clear()
        self._cell_of.clear()

    # ------------------------------------------------------------------
    def _axis_cells(self, p: int, axis: int):
        """Cell indices covering ``[p - bucket, p + bucket]`` on one axis."""
        b = self.bucket
        if self.periodic is None:
            c = p // b
            return (c - 1, c, c + 1)
        dim = self.periodic[axis]
        last = (dim - 1) // b
        if 2 * b + 1 >= dim:
            return range(last + 1)
        a, z = (p - b) % dim, (p + b) % dim
        if a <= z:
            return range(a // b, z // b + 1)
        # The interval wraps: cover [0, z] and [a, dim - 1].
        return (*range(z // b + 1), *range(a // b, last + 1))

    def candidates_near(self, points) -> List[int]:
        """Slots possibly within one cell edge of any of ``points``.

        ``points`` is a sequence of integer ``(x, y, z)`` half-unit
        positions; the result is an ascending, duplicate-free superset of
        the slots within ``bucket`` half-units of at least one of them.
        """
        if len(self._cell_of) <= 27 * len(points):
            # Fewer slots than cells to probe: handing back every slot is
            # the cheaper superset (a rank's few vacancies, a ghost
            # exchange's many points).
            return sorted(self._cell_of)
        get = self._cells.get
        out: List[int] = []
        blocks = set()
        for x, y, z in points:
            block = (
                self._axis_cells(x, 0),
                self._axis_cells(y, 1),
                self._axis_cells(z, 2),
            )
            if block in blocks:
                continue  # a hop's two ends mostly share one cell block
            blocks.add(block)
            xs, ys, zs = block
            for cx in xs:
                for cy in ys:
                    for cz in zs:
                        members = get((cx, cy, cz))
                        if members:
                            out += members
        return sorted(set(out))


class EventKernel:
    """The shared event core: rate cache + two-level selection + invalidation.

    Parameters
    ----------
    builder:
        The miss path: ``build_entries(keys, slots)`` returns the stale
        slots' entries in slot order — a
        :class:`~repro.core.vacancy_cache.BatchEntries` (rates plus the
        snapshot that makes the slots delta-ready) or a bare ``(B, 8)``
        rate matrix (rates only) — and ``patch_entries(slots, points_half)``
        scatter-updates the stored VET snapshots of delta-ready slots hit by
        an invalidation from the occupancy at the changed positions (this is
        how invalidation carries *what* changed instead of just *that*
        something changed).  The kernel hands the builder its cache as
        ``builder.cache``.  Every engine passes a
        :class:`~repro.core.delta.DeltaRebuilder`.
    position_of:
        ``key -> (3,)`` integer half-unit coordinates for the centre matrix.
    threshold:
        Invalidation distance threshold, in the driver's distance units.
    scale:
        Half-unit-to-distance-unit factor: ``a / 2`` for the serial engines
        (threshold in Angstrom), ``1.0`` for the parallel windows (threshold
        already in half-units).  A slot is stale when
        ``|scale * delta_half| <= threshold + 1e-9``.
    periodic_half:
        Half-unit box dimensions for periodic minimum-image distances, or
        ``None`` for open (padded-window) coordinates.
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
        position_of: Callable[[Hashable], np.ndarray],
        *,
        threshold: float,
        scale: float = 1.0,
        periodic_half: Optional[Sequence[int]] = None,
        keys: Iterable[Hashable] = (),
        use_cache: bool = True,
    ) -> None:
        self.builder = builder
        self.position_of = position_of
        self.threshold = float(threshold)
        self.scale = float(scale)
        self.use_cache = bool(use_cache)
        self.cache = VacancyCache(keys)
        builder.cache = self.cache
        self.store = FenwickPropensity(self.cache.n_slots)
        #: Inclusive limit of the distance test.
        self._limit = self.threshold + 1e-9
        self.periodic = (
            None
            if periodic_half is None
            else np.asarray(periodic_half, dtype=np.int64)
        )
        #: Box span in the distance test's dtype.
        self._span = (
            None
            if self.periodic is None
            else self.periodic.astype(np.float64)
        )
        #: Cell index of every live slot's centre, maintained by every
        #: registry mutation (see :meth:`check_index`).  The cell edge is
        #: the test's reach in whole half-units.
        self.index = SpatialHashIndex(
            int(np.ceil(self._limit / self.scale)), periodic_half
        )
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
        for slot in self.cache.live_slots():
            self._set_centre(slot, self.position_of(self.cache.key_of(slot)))

    # ------------------------------------------------------------------
    # Coordinate plumbing
    # ------------------------------------------------------------------
    def _set_centre(self, slot: int, half) -> None:
        """Record a live slot's centre in the cache row and the cell index."""
        centre = self.index.canonical(half)
        self.cache.centres[slot] = centre
        self.index.insert(slot, centre)

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
        self._set_centre(slot, self.position_of(key))
        return slot

    def remove(self, slot: int) -> None:
        """Unregister a vacancy; its slot parks at zero propensity."""
        self.cache.remove_slot(slot)
        self.store.update(slot, 0.0)
        self.index.remove(slot)
        if self._active_mask is not None:
            self._active_mask[slot] = False

    def move(self, slot: int, new_key: Hashable) -> None:
        """A vacancy hopped: rekey the slot, invalidate it, park at zero."""
        self.cache.move(slot, new_key)
        self.store.update(slot, 0.0)
        self._set_centre(slot, self.position_of(new_key))

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
        self.index.clear()
        for slot in self.cache.live_slots():
            self._set_centre(slot, self.position_of(self.cache.key_of(slot)))

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
        afterwards (finding nothing stale).
        """
        self._store_entries(np.asarray(stale, dtype=np.int64), entries)

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
        cache.stats.reuses += max(0, n_active - int(stale.size))

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
        """Invalidate cached entries near changed positions (Sec. 3.2).

        ``points_half`` is an ``(n, 3)`` array (or nested sequence) of
        half-unit coordinates.  The cell index narrows the registry to the
        slots in the cells around each point (ascending slot order); those
        candidates then take the exact test
        ``|scale * delta| <= threshold + 1e-9`` in one vectorised (periodic
        minimum-image, where configured) evaluation.  The test is
        element-wise per (point, centre) pair, so narrowing cannot change
        a single hit.  Returns the number of entries invalidated.

        The same query also covers stale-but-delta-ready slots, and every
        hit slot with a snapshot is handed to ``builder.patch_entries``
        together with the changed positions — invalidation carries *what*
        changed, which keeps the snapshots in sync with the lattice between
        refreshes.  The fresh->stale transitions and invalidation counters
        only see fresh slots, so they do not depend on which slots hold
        snapshots.
        """
        points = np.asarray(points_half, dtype=np.int64).reshape(-1, 3)
        if points.shape[0] == 0:
            return 0
        point_list = points.tolist()
        near = self.index.candidates_near(point_list)
        self.stats.invalidate_calls += 1
        self.stats.invalidation_candidates += len(near)
        if not near:
            return 0
        cache = self.cache
        near = np.array(near, dtype=np.int64)
        # Only slots that hold something — a fresh entry to drop, a delta
        # snapshot to patch — take the test; a registry that is stale
        # anyway (most ghost exchanges) ends here.
        near = near[cache.fresh[near] | cache.delta_ready[near]]
        if near.size == 0:
            return 0
        # Integer coordinates are exact in float64 however they got there.
        canonical = self.index.canonical
        pts = np.array([canonical(p) for p in point_list], dtype=np.float64)
        centres = cache.centres[near].astype(np.float64)
        delta = pts[:, None, :] - centres[None, :, :]
        span = self._span
        if span is not None:
            delta = delta - span * np.round(delta / span)
        delta = delta * self.scale
        dist = np.sqrt(np.sum(delta * delta, axis=-1))
        hit = np.any(dist <= self._limit, axis=0)
        hits = near[hit]
        fresh_hits = hits[cache.fresh[hits]]
        patch_slots = hits[cache.delta_ready[hits]]
        if patch_slots.size:
            # Patch before anything reads the snapshots again; the window
            # sites of every affected slot lie inside the invalidation ball
            # (the threshold is the max VET offset reach), so the distance
            # hits are a superset of the slots whose VETs can contain the
            # changed sites.
            self.builder.patch_entries(patch_slots, points)
        cache.fresh[fresh_hits] = False
        cache.stats.invalidations += int(fresh_hits.size)
        return int(fresh_hits.size)

    def check_index(self) -> List[str]:
        """Audit the cell index against the cache; ``[]`` when consistent.

        Every live slot must be indexed exactly once, in the cell of its
        ``cache.centres`` row, and no parked slot may be indexed at all.
        Returns one message per violation instead of asserting, so a
        driver can run it in production at low frequency.
        """
        problems: List[str] = []
        found: Dict[int, Tuple[int, int, int]] = {}
        for cell, members in self.index.cells():
            for slot in members:
                if slot in found:
                    problems.append(
                        f"slot {slot} indexed in cells {found[slot]} and {cell}"
                    )
                found[slot] = cell
        live = set(self.cache.live_slots())
        for slot in sorted(found.keys() - live):
            problems.append(f"parked slot {slot} indexed in cell {found[slot]}")
        for slot in sorted(live):
            want = self.index.cell(self.cache.centres[slot].tolist())
            got = found.get(slot)
            if got != want or self.index.cell_of(slot) != want:
                problems.append(
                    f"slot {slot}: centre lies in cell {want}, indexed in {got}"
                )
        return problems

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
