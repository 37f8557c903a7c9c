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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Optional

import numpy as np

from ..lattice.occupancy import LatticeState
from .tet import TripleEncoding

__all__ = ["VacancyCache"]


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
    its TET's; a cache used standalone may leave them 0).
    """

    def __init__(
        self, keys: Iterable[Hashable], n_all: int = 0, n_region: int = 0
    ) -> None:
        self.stats = CacheStats()
        self._n_all = int(n_all)
        self._n_region = int(n_region)
        self.set_keys(keys)
        if len(self._slot_of) != len(self._keys):
            raise ValueError("duplicate vacancy keys")

    # ------------------------------------------------------------------
    # Storage allocation
    # ------------------------------------------------------------------
    def _alloc(self, capacity: int) -> None:
        """(Re)allocate the slot arrays for ``capacity`` physical slots.

        Every ``delta_ready`` bit drops with the old snapshot slabs.
        """
        self._cap = int(capacity)
        self.live = np.zeros(self._cap, dtype=bool)
        self.fresh = np.zeros(self._cap, dtype=bool)
        self.rates = np.zeros(
            (self._cap, TripleEncoding.N_DIRECTIONS), dtype=np.float64
        )
        self.total_rates = np.zeros(self._cap, dtype=np.float64)
        #: Slot holds a consistent VET + per-row energy snapshot that the
        #: delta rebuild path may patch and re-rate instead of rebuilding.
        #: Stale-but-delta-ready is a valid state: the snapshot tracks the
        #: lattice through scatter patches while ``fresh`` is down.
        self.delta_ready = np.zeros(self._cap, dtype=bool)
        self.vets = np.zeros((self._cap, self._n_all), dtype=np.uint8)
        self.dirty_rows = np.zeros((self._cap, self._n_region), dtype=bool)
        # Allocated by the first store, once the first evaluation's
        # transients are freed: the slab reuses their pages (peak RSS).
        self.row_energies: Optional[np.ndarray] = None

    def _grow(self, min_capacity: int) -> None:
        """Double the physical capacity, preserving every slot's rates.

        Snapshots are deliberately *not* carried across a grow: the
        reallocation is rare (amortised doubling) and dropping
        ``delta_ready`` forces a clean full rebuild of every slot's
        snapshot, which is the documented "capacity grow" full-fallback.
        """
        new_cap = max(1, self._cap)
        while new_cap < min_capacity:
            new_cap *= 2
        names = ["live", "fresh", "rates", "total_rates"]
        saved = {name: getattr(self, name) for name in names}
        self._alloc(new_cap)
        for name, arr in saved.items():
            getattr(self, name)[: arr.shape[0]] = arr

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
        """Scatter a refresh's re-rated ``(P, 9)`` rows into the slab.

        Row ``p`` lands at region row ``pair_r[p]`` of slot
        ``slots[pair_b[p]]``; a slot's other rows keep their snapshot
        values.  Every slot becomes delta-ready with a clean dirty-row
        mask (its VET codes are in :attr:`vets` since its plan).
        """
        if self.row_energies is None:
            n_states = 1 + TripleEncoding.N_DIRECTIONS
            self.row_energies = np.zeros((self._cap, n_states, self._n_region))
        self.row_energies[slots[pair_b], :, pair_r] = rows
        self.dirty_rows[slots] = False
        self.delta_ready[slots] = True

    def store_rates(self, slots: np.ndarray, rates: np.ndarray) -> None:
        """Scatter a batch of ``(B, 8)`` rate rows: rates, their sums,
        freshness and the rebuild count."""
        rates = np.asarray(rates, dtype=np.float64)
        self.rates[slots] = rates
        self.total_rates[slots] = rates.sum(axis=1)
        self.fresh[slots] = True
        self.stats.rebuilds += int(slots.size)

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
        slots hold nothing usable.
        """
        held = self.live & self.fresh
        ready = self.live & self.delta_ready
        total = int(np.count_nonzero(held)) * self.rates[0].nbytes
        total += int(np.count_nonzero(held & ready)) * self.vets[0].nbytes
        if ready.any():  # then the row slab exists
            total += int(np.count_nonzero(ready)) * (
                self.row_energies[0].nbytes + self.dirty_rows[0].nbytes
            )
        return total

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
