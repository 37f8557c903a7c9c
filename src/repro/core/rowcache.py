"""Persistent row-energy memoization for the evaluator miss path.

``VacancySystemEvaluator._dedup_rows`` already proves that most rows in a
dilute alloy recur — it groups the ``(centre species, shell counts)`` rows
by code and collapses duplicates — but the dedup only lives *within one
batch* and then forgets.  The paper's VET hash cache (Sec. 3.4) observes
that the set of distinct local environments over a trajectory is tiny and
stable, so row energies should be computed once per *environment*, not
once per batch.  :class:`RowEnergyCache` makes the dedup persistent in
time (across batches and steps) and in space (one cache shared across
campaign replicas).

The content address is the exact **row code** of :func:`row_code_weights`:
a mixed-radix number whose digits are the row's ``(shell, species)``
counts — digit ``c`` runs up to its shell's site count — with the centre
species as the leading digit.  The code is injective over every row a TET
can produce, so equal codes mean equal rows and neither dedup nor the
cache ever looks at a row again; and it is linear in the counts, so the
eight swap states' codes follow from state 0's by one table gather.  A TET
and species alphabet whose codes would not fit in an int64 are refused.

Soundness of serving a stored energy rests on the same contract as
in-batch dedup: the potential must be ``batch_row_invariant`` — an
identical row produces bit-identical energy regardless of the batch it
appears in.  Under that contract a cache hit returns the same bits a
fresh evaluation would, so trajectories are bit-identical with or
without a cache attached.

An entry is its code and its energy (:data:`ROW_ENTRY_BYTES`): energies
live in a slab addressed through a code -> slot map, in their own dtype,
so the round-trip preserves every bit.  The byte budget
(:data:`ROW_CACHE_BYTES` unless the constructor is given another) is
enforced by second-chance eviction: entries queue in insert order, a hit
sets its entry's reference bit — one vectorised store per probe — and
eviction pops from the old end, sending an entry whose bit is set back to
the young end with the bit cleared instead of dropping it.  Contents are
deliberately *not* checkpointed — a restart rebuilds the cache from cold,
bit-identically — but the monotonic hit/miss/eviction counters are, so
resumed runs report honest totals.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

#: Bytes of one cache entry: the int64 row code and one float64 energy.
#: ``tensorkmc_memory_model(row_cache=...)`` charges the same figure and
#: :meth:`RowEnergyCache.memory_bytes` reports it, so the model is
#: validated against live bytes exactly like delta snapshots.
ROW_ENTRY_BYTES = 16

#: Default resident-size budget of a :class:`RowEnergyCache`: one miss
#: chunk's worth (``MISS_CHUNK_BYTES``), so the cache at most doubles the
#: miss pipeline's share of ``tensorkmc_memory_model``'s peak.  That is
#: 1.6M entries; a 20 s run of the rcut 6.5 benchmark workload meets about
#: 46k distinct rows, so steady runs never evict.
ROW_CACHE_BYTES = 24 * 2**20


def row_code_weights(tet, n_elements: int) -> tuple[np.ndarray, int]:
    """Place values of the exact row code under ``tet``.

    Channel ``c = shell * n_elements + species`` counts at most the site
    count ``m_s`` of its shell, so it is a digit of radix ``m_s + 1``; its
    place value ``R_c`` is the product of the earlier channels' radices,
    and the centre species (at most the vacancy code ``n_elements``) leads
    with ``W0``, the product of all of them.  Returns ``(R, W0)``: the
    ``(n_shells * n_elements,)`` int64 weights and ``W0``, so a row's code
    is ``counts @ R + centre * W0``.

    The codes span ``[0, W0 * (n_elements + 1))``: 1.2e4 at rcut 2.87,
    1.3e9 at 4.8 and 1.95e18 at 6.5 for the binary alloy.  A span past
    ``2**63`` (ternary at 6.5) raises :class:`ValueError`.
    """
    sizes = np.bincount(np.asarray(tet.cet_shell), minlength=tet.n_shells)
    weights = [1]  # Python ints: the span check must not wrap
    for size in np.repeat(sizes, n_elements).tolist():
        weights.append(weights[-1] * (size + 1))
    centre_weight = weights.pop()
    bits = (centre_weight * (int(n_elements) + 1) - 1).bit_length()
    if bits > 63:
        raise ValueError(
            f"row codes of {tet.n_shells} shells x {n_elements} species "
            f"need {bits} bits, more than the 63 an int64 holds"
        )
    return np.array(weights, dtype=np.int64), centre_weight


class RowEnergyCache:
    """Content-addressed map from row codes to row energies.

    Parameters
    ----------
    max_bytes:
        Resident-size budget in bytes (:data:`ROW_ENTRY_BYTES` per entry).
        Inserting past it evicts, second chance first, until the cache
        fits again.
    """

    def __init__(self, max_bytes: int = ROW_CACHE_BYTES) -> None:
        if max_bytes < ROW_ENTRY_BYTES:
            raise ValueError(
                f"row cache budget {max_bytes} B cannot hold a single "
                f"{ROW_ENTRY_BYTES} B entry"
            )
        self.max_bytes = int(max_bytes)
        # code -> slab slot, in eviction order (oldest first).
        self._slot_of: OrderedDict[int, int] = OrderedDict()
        # Slabs of energies and reference bits; the first insert allocates
        # them and so fixes the value dtype.
        self._values: np.ndarray | None = None
        self._referenced: np.ndarray | None = None
        self._n_slots = 0  # slab prefix ever handed out
        self._free: list[int] = []  # slots released by eviction
        self._potential_token: tuple[int, int] | None = None
        # Monotonic counters: they survive clears and invalidations so
        # checkpoint-resumed runs keep reporting cumulative totals.
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- identity / invalidation --------------------------------------

    def sync(self, potential) -> None:
        """Bind the cache to ``potential``'s current parameters.

        The token pairs the potential's object identity with its
        ``params_epoch`` (bumped by ``set_standardisation`` / weight
        updates).  A mismatch means cached energies were produced by a
        different energy function, so the contents are dropped; the
        counters persist (they count work, not contents).
        """
        token = (id(potential), int(getattr(potential, "params_epoch", 0)))
        if token != self._potential_token:
            if self._potential_token is not None:
                self.clear()
            self._potential_token = token

    def clear(self) -> None:
        """Drop all cached rows (counters are monotonic and persist)."""
        self._slot_of.clear()
        self._values = self._referenced = None
        self._n_slots = 0
        self._free = []

    # -- lookup / insert ----------------------------------------------

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probe the cache for each row code in ``keys``.

        Returns ``(found, values)`` where ``found`` is a boolean mask and
        ``values`` holds the cached energies (in the cache's value dtype)
        at found positions, zeros elsewhere.  Every hit sets its entry's
        reference bit, which spares it at the next eviction.
        """
        n = len(keys)
        if not self._slot_of:
            self.misses += n
            dtype = np.float64 if self._values is None else self._values.dtype
            return np.zeros(n, dtype=bool), np.zeros(n, dtype=dtype)
        get = self._slot_of.get
        slots = np.array([get(k, -1) for k in keys.tolist()], dtype=np.intp)
        found = slots >= 0
        # A probe without its code reads some other slot; ``found`` masks it.
        values = np.where(found, self._values[slots], 0)
        self._referenced[slots[found]] = True
        n_hits = int(np.count_nonzero(found))
        self.hits += n_hits
        self.misses += n - n_hits
        return found, values

    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Store freshly evaluated row energies; enforce the budget.

        A code already present takes the new energy; a code repeated
        within one call keeps its last energy.
        """
        n = len(keys)
        if n == 0:
            return
        if self._values is None:
            self._values = np.empty(n, dtype=values.dtype)
            self._referenced = np.empty(n, dtype=bool)
        slot_of, free = self._slot_of, self._free
        latest = dict(zip(keys.tolist(), range(n)))
        slots = []
        for key in latest:
            slot = slot_of.pop(key, None)
            if slot is None:
                if free:
                    slot = free.pop()
                else:
                    slot = self._n_slots
                    self._n_slots += 1
            slot_of[key] = slot  # (re-)enters at the young end
            slots.append(slot)
        extra = self._n_slots - len(self._values)
        if extra > 0:
            extra = max(extra, len(self._values))  # amortised doubling
            self._values = np.concatenate(
                [self._values, np.empty(extra, self._values.dtype)]
            )
            self._referenced = np.concatenate(
                [self._referenced, np.empty(extra, bool)]
            )
        self._values[slots] = values[list(latest.values())]
        referenced = self._referenced
        referenced[slots] = False
        capacity = self.max_bytes // ROW_ENTRY_BYTES
        while len(slot_of) > capacity:
            key, slot = slot_of.popitem(last=False)
            if referenced[slot]:  # hit since it was queued: second chance
                referenced[slot] = False
                slot_of[key] = slot
            else:
                free.append(slot)
                self.evictions += 1

    # -- accounting ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._slot_of)

    def memory_bytes(self) -> int:
        """Resident bytes under the analytic per-entry charge."""
        return len(self) * ROW_ENTRY_BYTES

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> dict:
        """Monotonic counters, in the kernel/CycleStats key namespace."""
        return {
            "row_cache_hits": int(self.hits),
            "row_cache_misses": int(self.misses),
            "row_cache_evictions": int(self.evictions),
        }

    def restore_counters(
        self, hits: int, misses: int, evictions: int
    ) -> None:
        """Resume cumulative counters from a checkpoint (contents stay cold)."""
        self.hits = int(hits)
        self.misses = int(misses)
        self.evictions = int(evictions)

    def summary(self) -> dict:
        out = dict(self.counters())
        out["row_cache_hit_rate"] = self.hit_rate
        out["row_cache_entries"] = len(self)
        out["row_cache_bytes"] = self.memory_bytes()
        return out

