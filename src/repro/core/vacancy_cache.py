"""Vacancy-cache mechanism — paper Sec. 3.2.

TensorKMC caches *only* the vacancy systems (VET + rates) rather than
per-atom properties for the whole domain ("cache all", OpenKMC).  After a
hop or a ghost synchronisation, the entries whose VET holds a changed site
are stale and recomputed at the next propensity refresh; everything else is
reused.  The engines find those entries through the TET stencil
(:meth:`repro.core.kernel.EventKernel.invalidate_near`); the paper's
Euclidean-distance form of the test is :meth:`VacancyCache.invalidate_near`.

The cache is *keyed*: a slot is identified by an opaque hashable key — a flat
lattice site index for the serial engines, a window half-coordinate tuple for
the parallel ranks — so one registry serves every driver.  Slots are stable
(a vacancy keeps its slot when it hops) and freed slots are recycled through
a free list, which is what lets the parallel driver add and remove vacancies
as they enter and leave its subdomain without reindexing the propensity
structure.

Storage is structure-of-arrays: ``(capacity, 8)`` rates with their sums
and ``live``/``fresh``/``delta_ready`` masks, so invalidation, refresh and
propensity updates run as NumPy array operations over slot batches instead
of per-entry Python objects.  A slot built on the delta path also keeps its
snapshot — VET codes and the per-row trial-state energies — which
invalidation patches in place and the next refresh re-rates
(:mod:`repro.core.delta`).

The slot arrays are views of one block of a :class:`SlotPool`.  A cache
built alone owns a pool of one; a campaign moves its replicas' caches into
one pool, so a refresh over all of them sweeps, plans, splices and stores
their stale slots in one array pass (:func:`repro.core.kernel.refresh_many`).
Slot indices on the refresh path are pool indices: a cache's slot ``s`` is
pool slot ``s + base``, and a cache alone has ``base`` 0.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import (
    Dict, Hashable, Iterable, List, Optional, Sequence, Tuple,
)

import numpy as np

from ..lattice.occupancy import LatticeState
from .tet import TripleEncoding

__all__ = ["SlotPool", "VacancyCache"]


@dataclass
class CacheStats:
    """Hit/rebuild counters for the ablation study."""

    rebuilds: int = 0
    reuses: int = 0
    invalidations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.rebuilds + self.reuses
        return self.reuses / total if total else 0.0


def _canonical_key(key: Hashable) -> Hashable:
    """Normalise keys so equal coordinates always hash equally."""
    if isinstance(key, tuple):
        return tuple(int(v) for v in key)
    if isinstance(key, np.ndarray):
        return tuple(int(v) for v in key)
    return int(key)


#: Slot arrays whose values survive a capacity grow (the rest is a snapshot,
#: dropped by a grow), and every slot array a :class:`SlotPool` holds.
_RATE_ARRAYS = ("live", "fresh", "rates", "total_rates")
_SLOT_ARRAYS = _RATE_ARRAYS + ("delta_ready", "vets", "dirty_rows",
                               "row_energies")


def _slot_bytes(arr: np.ndarray) -> int:
    """Bytes one slot holds in a per-slot array."""
    return arr.itemsize * int(np.prod(arr.shape[1:]))


def _held_bytes(slots, live: np.ndarray) -> int:
    """Bytes held by the ``live`` entries of a cache or a pool (Table 1's
    'VAC Cache' row, see :meth:`VacancyCache.memory_bytes`)."""
    held = live & slots.fresh
    ready = live & slots.delta_ready
    total = int(np.count_nonzero(held)) * _slot_bytes(slots.rates)
    total += int(np.count_nonzero(held & ready)) * _slot_bytes(slots.vets)
    if ready.any():  # then the row slab exists
        total += int(np.count_nonzero(ready)) * (
            _slot_bytes(slots.row_energies) + _slot_bytes(slots.dirty_rows)
        )
    return total


class SlotPool:
    """The slot arrays of one or more :class:`VacancyCache` registries,
    one contiguous block each.

    Every member's ``live``, ``fresh``, ``delta_ready``, ``rates``,
    ``total_rates``, ``vets``, ``dirty_rows`` and ``row_energies`` are
    views of its block ``[base, base + capacity)`` of the pool's arrays of
    the same names, so one array operation over pool slots serves every
    member at once; ``owner[p]`` is the block holding pool slot ``p``.  The
    row slab is allocated by the first store
    (:meth:`VacancyCache.store_batch`), like a lone cache's.

    A cache built alone owns a pool of one.  :meth:`admit` moves a cache
    in: the pool lays its members out afresh with the newcomer appended
    (freed blocks are dropped) and rebinds every member's views.
    :meth:`release` moves a member out into a pool of one, which adopts
    its arrays as they are, and frees its block.  Only a cache's own grow
    changes its capacity.
    """

    def __init__(self, n_all: int = 0, n_region: int = 0) -> None:
        self.n_all = int(n_all)
        self.n_region = int(n_region)
        # A weak reference to the cache of each block, ``None`` for a
        # freed one: a cache holds its pool, so a strong reference back
        # would keep a retired engine's arrays alive until a cycle
        # collection.
        self._members: List[Optional[weakref.ref]] = []
        self._blocks: List[Tuple[int, int]] = []  # (base, capacity)
        self._layout([])

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _layout(self, blocks) -> None:
        """Reallocate the pool as ``blocks`` — ``(cache, capacity, names
        of its arrays to carry)`` — in order, and rebind every view.

        A carried array is copied from the cache's current view into the
        start of its new block; the rest of the block starts zeroed.
        """
        caps = [int(cap) for _, cap, _ in blocks]
        n = sum(caps)
        self.live = np.zeros(n, dtype=bool)
        self.fresh = np.zeros(n, dtype=bool)
        self.rates = np.zeros((n, TripleEncoding.N_DIRECTIONS))
        self.total_rates = np.zeros(n)
        #: Slot holds a consistent VET + per-row energy snapshot that the
        #: delta rebuild path may patch and re-rate instead of rebuilding.
        #: Stale-but-delta-ready is a valid state: the snapshot tracks the
        #: lattice through scatter patches while ``fresh`` is down.
        self.delta_ready = np.zeros(n, dtype=bool)
        self.vets = np.zeros((n, self.n_all), dtype=np.uint8)
        self.dirty_rows = np.zeros((n, self.n_region), dtype=bool)
        self.row_energies: Optional[np.ndarray] = None
        if any("row_energies" in names and cache.row_energies is not None
               for cache, _, names in blocks):
            self.row_energies = self._row_slab(n)
        self.owner = np.repeat(np.arange(len(caps), dtype=np.intp), caps)
        bases = np.cumsum([0] + caps[:-1]).tolist()
        self._members = [None] * len(blocks)
        self._blocks = list(zip(bases, caps))
        for block, (cache, _, names) in enumerate(blocks):
            # Carry ``names`` into the start of the block, then bind it.
            for name in names:
                src, dst = getattr(cache, name, None), getattr(self, name)
                if src is not None and dst is not None:
                    dst[bases[block]:bases[block] + len(src)] = src
            self._bind(block, cache)

    def _row_slab(self, n: int) -> np.ndarray:
        n_states = 1 + TripleEncoding.N_DIRECTIONS
        return np.zeros((n, n_states, self.n_region))

    def _bind(self, block: int, cache: "VacancyCache") -> None:
        base, cap = self._blocks[block]
        self._members[block] = weakref.ref(cache)
        cache.pool, cache._block, cache._base, cache._cap = (
            self, block, base, cap
        )
        for name in _SLOT_ARRAYS:
            arr = getattr(self, name)
            setattr(cache, name, None if arr is None else arr[base:base + cap])

    def _free(self, block: int) -> None:
        """Mark ``block`` free: no refresh or count reads its slots."""
        self._members[block] = None

    def _member(self, block: int) -> Optional["VacancyCache"]:
        """The cache of ``block``, ``None`` for a freed one."""
        ref = self._members[block]
        return None if ref is None else ref()

    def _relayout(self, grown=None, capacity: int = 0, newcomer=None) -> None:
        """Compact the members (freed blocks dropped), optionally growing
        ``grown`` to ``capacity`` — its snapshots are not carried — and
        appending ``newcomer``."""
        blocks = []
        for block, (_, cap) in enumerate(self._blocks):
            cache = self._member(block)
            if cache is None:
                continue
            if cache is grown:
                blocks.append((cache, capacity, _RATE_ARRAYS))
            else:
                blocks.append((cache, cap, _SLOT_ARRAYS))
        if newcomer is not None:
            blocks.append((newcomer, newcomer._cap, _SLOT_ARRAYS))
        self._layout(blocks)

    def _alloc_row_slab(self) -> None:
        """Allocate the row-energy slab and bind every member's view."""
        self.row_energies = self._row_slab(self.live.shape[0])
        for block in range(len(self._blocks)):
            cache = self._member(block)
            if cache is not None:
                self._bind(block, cache)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def admit(self, cache: "VacancyCache") -> None:
        """Move ``cache`` (from its own pool) into this one, state intact."""
        if (cache._n_all, cache._n_region) != (self.n_all, self.n_region):
            raise ValueError(
                f"cache slabs ({cache._n_all}, {cache._n_region}) do not "
                f"match the pool's ({self.n_all}, {self.n_region})"
            )
        old, old_block = cache.pool, cache._block
        self._relayout(newcomer=cache)
        old._free(old_block)

    def release(self, cache: "VacancyCache") -> None:
        """Move member ``cache`` out into a pool of one and free its block.

        Nothing is copied: the new pool adopts the cache's views, and this
        pool's next layout drops the freed block.
        """
        self._free(cache._block)
        own = SlotPool(self.n_all, self.n_region)
        for name in _SLOT_ARRAYS:
            setattr(own, name, getattr(cache, name))
        own.owner = np.zeros(cache._cap, dtype=np.intp)
        own._members, own._blocks = [None], [(0, cache._cap)]
        own._bind(0, cache)

    # ------------------------------------------------------------------
    # Pool-slot queries
    # ------------------------------------------------------------------
    def ranks(self, caches: Sequence["VacancyCache"]) -> np.ndarray:
        """Per block, the position of its cache in ``caches`` (-1 if none)."""
        rank = np.full(len(self._blocks), -1, dtype=np.intp)
        rank[[cache._block for cache in caches]] = np.arange(len(caches))
        return rank

    def bounds(
        self, slots: np.ndarray, caches: Sequence["VacancyCache"]
    ) -> List[int]:
        """Boundaries ``b`` of each cache's run in pool slots ``slots``,
        ordered cache-major over ``caches``: cache ``i`` holds
        ``slots[b[i]:b[i + 1]]``."""
        counts = np.bincount(
            self.ranks(caches)[self.owner[slots]], minlength=len(caches)
        )
        return [0] + np.cumsum(counts).tolist()

    def key_of(self, slot: int) -> Hashable:
        """Key of pool slot ``slot``, from the registry of its member."""
        cache = self._member(self.owner[slot])
        return cache.key_of(int(slot) - cache._base)

    def memory_bytes(self) -> int:
        """Bytes held by the live entries of every member (their
        :meth:`VacancyCache.memory_bytes` summed; freed blocks hold
        nothing)."""
        member = [self._member(b) is not None for b in range(len(self._blocks))]
        return _held_bytes(self, self.live & np.array(member)[self.owner])


class VacancyCache:
    """Key-indexed cache of vacancy systems with distance invalidation.

    Slots correspond to vacancies in a stable registry order (a vacancy keeps
    its slot when it hops), so the propensity structure can address them
    directly.  Keys are flat site indices (serial) or half-coordinate tuples
    (parallel); removed slots are recycled through a free list.

    Slot state lives in structure-of-arrays form, sized to a physical
    ``capacity >= n_slots`` (amortised doubling):

    * ``live[slot]`` — slot holds a vacancy (key is not ``None``);
    * ``fresh[slot]`` — slot holds a valid cached entry (live and not stale);
    * ``rates[slot]`` / ``total_rates[slot]`` — the per-direction rate row
      and its sum;
    * ``delta_ready[slot]`` — slot holds a snapshot that the delta refresh
      may patch and re-rate: ``vets[slot]`` (the ``n_all`` VET species
      codes), ``row_energies[slot]`` (the ``(9, n_region)`` trial-state
      energies of its region rows) and ``dirty_rows[slot]`` (the rows an
      invalidation patch touched since).  The refresh writes these slabs
      in place, so a snapshot is never copied out and back.

    Entries beyond ``n_slots`` and parked slots always read ``live=False``,
    so vectorised sweeps can safely run over the whole physical arrays.
    ``n_all`` and ``n_region`` size the snapshot slabs (the kernel passes
    its TET's; a cache used standalone may leave them 0).  The arrays are
    views of the cache's block of :attr:`pool` (see :class:`SlotPool`).
    """

    def __init__(
        self, keys: Iterable[Hashable], n_all: int = 0, n_region: int = 0
    ) -> None:
        self.stats = CacheStats()
        self._n_all = int(n_all)
        self._n_region = int(n_region)
        self.pool: Optional[SlotPool] = None
        self.set_keys(keys)
        if len(self._slot_of) != len(self._keys):
            raise ValueError("duplicate vacancy keys")

    # ------------------------------------------------------------------
    # Storage allocation
    # ------------------------------------------------------------------
    def _alloc(self, capacity: int) -> None:
        """Move onto fresh, zeroed slot arrays of ``capacity`` slots, in a
        pool of one (leaving any pool the cache was in).

        Every ``delta_ready`` bit drops with the old snapshot slabs; the
        row slab is allocated by the first store, once the first
        evaluation's transients are freed, so it reuses their pages (peak
        RSS).
        """
        if self.pool is not None:
            self.pool._free(self._block)
        SlotPool(self._n_all, self._n_region)._layout([(self, capacity, ())])

    def _grow(self, min_capacity: int) -> None:
        """Double the physical capacity, preserving every slot's rates.

        Snapshots are deliberately *not* carried across a grow: the
        reallocation is rare (amortised doubling) and dropping
        ``delta_ready`` forces a clean full rebuild of every slot's
        snapshot, which is the documented "capacity grow" full-fallback.
        The pool lays its members out afresh around the grown block.
        """
        new_cap = max(1, self._cap)
        while new_cap < min_capacity:
            new_cap *= 2
        self.pool._relayout(grown=self, capacity=new_cap)

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    @property
    def sites(self) -> List[Optional[Hashable]]:
        """The slot -> key registry (kept under its historical name)."""
        return self._keys

    def set_keys(
        self,
        keys: Iterable[Hashable],
        free_order: Optional[Iterable[int]] = None,
    ) -> None:
        """Reset the registry to a new slot order (all entries dropped).

        Used by checkpoint restore, where the stored slot order encodes event
        identity.  ``None`` keys mark parked (free) slots; ``free_order``
        restores the free-list *stack order* (``add_slot`` pops from the
        end), which a bit-exact resume needs whenever slots were freed and
        re-used before the checkpoint.  Engines must re-sync their centre
        propensity store afterwards (``EventKernel.set_keys`` does both).
        """
        self._keys = [
            None if k is None else _canonical_key(k) for k in keys
        ]
        self._slot_of = {
            k: i for i, k in enumerate(self._keys) if k is not None
        }
        free = [i for i, k in enumerate(self._keys) if k is None]
        if free_order is not None:
            order = [int(s) for s in free_order]
            if sorted(order) != sorted(free):
                raise ValueError(
                    f"free_order {order} is not a permutation of the free "
                    f"slots {sorted(free)}"
                )
            free = order
        self._free = free
        self._alloc(max(1, len(self._keys)))
        for i, k in enumerate(self._keys):
            if k is not None:
                self.live[i] = True

    @property
    def n_slots(self) -> int:
        """Slot count, including parked (free) slots."""
        return len(self._keys)

    @property
    def free_slots(self) -> List[int]:
        """The free-list in stack order (``add_slot`` pops from the end).

        Serialised by checkpoints: after slot churn the recycling order is
        part of the trajectory-determining state.
        """
        return list(self._free)

    @property
    def n_live(self) -> int:
        """Number of slots currently holding a vacancy."""
        return len(self._keys) - len(self._free)

    def live_slots(self) -> List[int]:
        """Slots currently holding a vacancy, ascending."""
        return [int(s) for s in np.flatnonzero(self.live[: self.n_slots])]

    def key_of(self, slot: int) -> Hashable:
        """Current key (lattice site / half-coordinate) of a slot."""
        return self._keys[slot]

    def keys_of(self, slots: np.ndarray) -> List[Hashable]:
        """Keys of a batch of slots in one registry sweep.

        The batched counterpart of :meth:`key_of` — refresh paths gathering
        the keys of every stale slot use this instead of a per-slot Python
        loop over ``key_of``.
        """
        keys = self._keys
        return [keys[s] for s in np.asarray(slots, dtype=np.int64).tolist()]

    def slot_of(self, key: Hashable) -> Optional[int]:
        """Slot holding ``key``, or ``None``."""
        return self._slot_of.get(_canonical_key(key))

    def slots_of(self, keys: Iterable[Hashable]) -> np.ndarray:
        """Slots of a batch of canonical keys, ``-1`` where none is registered."""
        get = self._slot_of.get
        return np.array([get(k, -1) for k in keys], dtype=np.int64)

    def add_slot(self, key: Hashable) -> int:
        """Register a new vacancy, recycling a freed slot when possible."""
        key = _canonical_key(key)
        if key in self._slot_of:
            raise ValueError(f"key {key!r} already registered")
        if self._free:
            slot = self._free.pop()
            self._keys[slot] = key
        else:
            slot = len(self._keys)
            self._keys.append(key)
            if slot >= self._cap:
                self._grow(slot + 1)
        self._slot_of[key] = slot
        self.live[slot] = True
        self.fresh[slot] = False
        self.delta_ready[slot] = False
        return slot

    def remove_slot(self, slot: int) -> None:
        """Unregister a vacancy; the slot is parked for reuse."""
        key = self._keys[slot]
        if key is None:
            raise ValueError(f"slot {slot} is already free")
        del self._slot_of[key]
        self._keys[slot] = None
        self.live[slot] = False
        self.fresh[slot] = False
        self.delta_ready[slot] = False
        self._free.append(slot)

    def move(self, slot: int, new_key: Hashable) -> None:
        """Record that a vacancy hopped to a new site (entry invalidated)."""
        new_key = _canonical_key(new_key)
        old_key = self._keys[slot]
        if old_key is not None:
            del self._slot_of[old_key]
        self._keys[slot] = new_key
        self._slot_of[new_key] = slot
        self.live[slot] = True
        self.fresh[slot] = False
        # The hopped vacancy's window shifted: its VET snapshot no longer
        # describes the sites around the new centre, so force a full build.
        self.delta_ready[slot] = False

    # ------------------------------------------------------------------
    # Entries
    # ------------------------------------------------------------------
    def store_batch(self, slots, pair_b, pair_r, rows: np.ndarray) -> None:
        """Scatter a refresh's re-rated ``(P, 9)`` rows into the pool's slab.

        ``slots`` are pool slots (:class:`SlotPool`; a cache alone: its
        own).  Row ``p`` lands at region row ``pair_r[p]`` of slot
        ``slots[pair_b[p]]``; a slot's other rows keep their snapshot
        values.  Every slot becomes delta-ready with a clean dirty-row
        mask (its VET codes are in :attr:`vets` since its plan).
        """
        pool = self.pool
        if pool.row_energies is None:
            pool._alloc_row_slab()
        pool.row_energies[slots[pair_b], :, pair_r] = rows
        pool.dirty_rows[slots] = False
        pool.delta_ready[slots] = True

    def store_rates(self, slots: np.ndarray, rates: np.ndarray) -> None:
        """Scatter a batch of ``(B, 8)`` rate rows into pool slots
        ``slots``: rates, their sums and freshness.  The kernel counts
        each member's rebuilds."""
        pool = self.pool
        rates = np.asarray(rates, dtype=np.float64)
        pool.rates[slots] = rates
        pool.total_rates[slots] = rates.sum(axis=1)
        pool.fresh[slots] = True

    def stale_mask(self) -> np.ndarray:
        """Boolean ``live & ~fresh`` over the physical slots (no copy)."""
        return self.live & ~self.fresh

    def invalidate_slots(self, slots: np.ndarray) -> int:
        """Drop a batch of entries; returns how many were actually live.

        Direct invalidation carries no changed-site payload, so the delta
        snapshots cannot be kept in sync — they are dropped along with the
        entries (the kernel's stencil invalidation, which *does* know what
        changed, clears ``fresh`` directly and keeps ``delta_ready`` up).
        """
        slots = np.asarray(slots, dtype=np.int64)
        if slots.size == 0:
            return 0
        self.delta_ready[slots] = False
        hit = slots[self.live[slots] & self.fresh[slots]]
        self.fresh[hit] = False
        self.stats.invalidations += int(hit.size)
        return int(hit.size)

    def invalidate_all(self) -> None:
        """Drop every entry (cache-off mode / global resync).

        The global hammer guards against out-of-band occupancy mutation,
        so every delta snapshot is dropped too — the next refresh is a
        full rebuild for every slot.
        """
        n_fresh = int(np.count_nonzero(self.live & self.fresh))
        self.fresh[:] = False
        self.delta_ready[:] = False
        self.stats.invalidations += n_fresh

    def invalidate_near(
        self,
        changed_sites: Iterable[int],
        lattice: LatticeState,
        radius: float,
    ) -> None:
        """Invalidate systems whose centre is within ``radius`` of a change.

        This is the paper's post-hop / post-synchronisation distance test
        (Sec. 3.2), as a linear scan over every cached entry.  The engines go
        through :class:`repro.core.kernel.EventKernel`, whose TET stencil
        marks only the entries whose VET holds a change — the same set
        wherever every site of the ball is a VET site (r_cut = 2.87 A), a
        subset otherwise; this method remains for int-keyed caches used
        standalone.
        """
        changed = [int(s) for s in changed_sites]
        if not changed:
            return
        for slot in range(self.n_slots):
            if not (self.live[slot] and self.fresh[slot]):
                continue
            center = self._keys[slot]
            for site in changed:
                d = np.linalg.norm(
                    lattice.minimum_image_displacement(center, site)
                )
                if d <= radius + 1e-9:
                    self.fresh[slot] = False
                    self.stats.invalidations += 1
                    break

    # ------------------------------------------------------------------
    # Delta snapshots (incremental rebuild path)
    # ------------------------------------------------------------------
    def patch_vets(
        self, slots: np.ndarray, positions: np.ndarray, codes: np.ndarray
    ) -> np.ndarray:
        """Scatter species codes into stored VETs; returns the old codes.

        ``(slots, positions)`` pairs must be unique within one call —
        duplicate pairs would make "old code" ill-defined.  Callers dedup
        before patching (ghost exchanges can report the same site twice).
        """
        old = self.vets[slots, positions]
        self.vets[slots, positions] = codes
        return old

    def or_dirty_rows(self, slots: np.ndarray, masks: np.ndarray) -> None:
        """Accumulate ``(k, n_region)`` dirty-row masks into the slots.

        Duplicate slots accumulate (``logical_or.at``): one patch call may
        dirty several positions of the same slot.
        """
        np.logical_or.at(
            self.dirty_rows, np.asarray(slots, dtype=np.int64), masks
        )

    def memory_bytes(self) -> int:
        """Bytes held by live cache entries (the Table 1 'VAC Cache' row).

        Every fresh slot holds its rate row, plus its VET codes when it is
        delta-ready; every live delta-ready slot, fresh or patched while
        stale, holds its row energies and dirty-row mask.  Parked
        slots hold nothing usable.  A pooled cache counts its own block.
        """
        return _held_bytes(self, self.live)

    def summary(self) -> Dict[str, float]:
        """Cache statistics snapshot."""
        return {
            "n_slots": self.n_slots,
            "live_entries": int(np.count_nonzero(self.live & self.fresh)),
            "rebuilds": self.stats.rebuilds,
            "reuses": self.stats.reuses,
            "invalidations": self.stats.invalidations,
            "hit_rate": self.stats.hit_rate,
            "memory_bytes": self.memory_bytes(),
        }
