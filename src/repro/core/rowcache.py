"""Persistent row-energy memoization for the evaluator miss path.

``VacancySystemEvaluator._dedup_rows`` already proves that most rows in a
dilute alloy recur — it keys each ``(centre species, shell counts)`` row
and collapses duplicates — but the dedup only lives *within one batch*
and then forgets.  The paper's VET hash cache (Sec. 3.4) observes that
the set of distinct local environments over a trajectory is tiny and
stable, so row energies should be computed once per *environment*, not
once per batch.  :class:`RowEnergyCache` makes the dedup persistent in
time (across batches and steps) and in space (one cache shared across
campaign replicas).

The content address is :func:`row_keys`: a wrapping 64-bit sum of one
fixed pseudo-random weight per row column, ``key = w_0·centre +
Σ_j w_j·count_j (mod 2^64)``.  Every row width goes through this one
path, and because the key is a sum of per-column terms, a change in one
(shell, species) count patches it by one term.  A 64-bit address cannot
be injective, so it is never trusted alone: in-batch dedup compares every
row against the first row of its group, and every cache entry stores its
row next to its energy, so a hit counts only when the stored row equals
the probed one.  A key collision therefore costs one extra evaluation —
a miss — and never a wrong energy.

Soundness of serving a stored energy rests on the same contract as
in-batch dedup: the potential must be ``batch_row_invariant`` — an
identical row produces bit-identical energy regardless of the batch it
appears in.  Under that contract a cache hit returns the same bits a
fresh evaluation would, so trajectories are bit-identical with or
without a cache attached.

Entries live in slab arrays addressed through a key -> slot map.  Rows
are stored in the narrowest unsigned dtype that holds every value a row
can take under the TET (:func:`row_dtype`: one byte for every shipped
TET), energies in their own dtype, so the round-trip preserves every bit.
The byte budget (:data:`ROW_CACHE_BYTES` unless the constructor is given
another) is enforced by second-chance eviction: entries queue in insert
order, a hit sets its entry's reference bit — one vectorised store per
probe — and eviction pops from the old end, sending an entry whose bit is
set back to the young end with the bit cleared instead of dropping it.
Contents are deliberately *not* checkpointed — a restart rebuilds the
cache from cold, bit-identically — but the monotonic hit/miss/eviction
counters are, so resumed runs report honest totals.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

#: One weight per row column (the centre species, then each
#: ``(shell, species)`` count), drawn once from a fixed seed so keys are
#: reproducible across runs and processes.  Rows may be up to this wide.
ROW_KEY_WEIGHTS = np.random.default_rng(0x5EED_0C0DE).integers(
    0, 2**64, size=1024, dtype=np.uint64
)

#: Analytic per-entry byte charge besides the stored row: the int64 key
#: plus one float64 energy.
ROW_ENTRY_BYTES = 16

#: Default resident-size budget of a :class:`RowEnergyCache`: one miss
#: chunk's worth (``MISS_CHUNK_BYTES``), so the cache at most doubles the
#: miss pipeline's share of ``tensorkmc_memory_model``'s peak.  That is
#: 762k entries at the paper's rcut 6.5 (33 B, :func:`row_entry_bytes`)
#: and 1.2M at rcut 2.87 (21 B); a 20 s run of the rcut 6.5 benchmark
#: workload meets about 46k distinct rows, so steady runs never evict.
ROW_CACHE_BYTES = 24 * 2**20


def row_entry_bytes(n_channels: int, itemsize: int) -> int:
    """Analytic bytes of one cache entry for rows of ``n_channels`` counts.

    The key and energy (:data:`ROW_ENTRY_BYTES`) plus the row kept for the
    check on every hit — the centre species and the counts — at
    ``itemsize`` bytes per value (the :func:`row_dtype` of the TET).
    ``tensorkmc_memory_model(row_cache=...)`` charges the same figure and
    :meth:`RowEnergyCache.memory_bytes` reports it, so the model is
    validated against live bytes exactly like delta snapshots.
    """
    return ROW_ENTRY_BYTES + int(itemsize) * (1 + int(n_channels))


def row_dtype(tet, n_elements: int) -> np.dtype:
    """Narrowest unsigned dtype of the rows stored under ``tet``.

    A row holds the centre species — at most the vacancy code
    ``n_elements`` — and neighbour counts, each at most the site count of
    the TET's largest shell (24 at rcut 6.5), so every shipped TET stores
    one byte per value.
    """
    largest_shell = int(np.bincount(np.asarray(tet.cet_shell)).max())
    return np.min_scalar_type(max(largest_shell, int(n_elements)))


def row_keys(center_types: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Additive 64-bit content address of each ``(centre, counts)`` row.

    ``key = w_0·centre + Σ_j w_{1+j}·counts[:, j] (mod 2^64)`` with the
    weights of :data:`ROW_KEY_WEIGHTS`, returned as int64; ``counts`` is
    ``(n, C)`` and holds exact integers (any numeric dtype).  Equal rows
    always share a key; distinct rows almost never do, and callers check
    rows wherever a shared key would be acted on.
    """
    width = 1 + counts.shape[1]
    if width > len(ROW_KEY_WEIGHTS):
        raise ValueError(
            f"rows of {width} columns exceed the {len(ROW_KEY_WEIGHTS)} "
            f"row-key weights"
        )
    # Unsigned arithmetic wraps by definition; int64 views keep the bits.
    weights = ROW_KEY_WEIGHTS[:width]
    keys = counts.astype(np.int64).view(np.uint64) @ weights[1:]
    keys += center_types.astype(np.int64).view(np.uint64) * weights[0]
    return keys.view(np.int64)


def stored_rows(
    center_types: np.ndarray, counts: np.ndarray, dtype: np.dtype
) -> np.ndarray:
    """The rows ``[centre, counts...]`` a cache entry keeps and checks.

    Stored as ``dtype`` (see :func:`row_dtype`); a value outside its range
    raises :class:`ValueError` instead of wrapping onto another row.
    """
    rows = np.empty((len(center_types), 1 + counts.shape[1]), dtype=dtype)
    if rows.size:
        lo = min(center_types.min(), counts.min())
        hi = max(center_types.max(), counts.max())
        if lo < 0 or hi > np.iinfo(rows.dtype).max:
            raise ValueError(
                f"row values span [{lo}, {hi}], outside the {rows.dtype} "
                f"row dtype"
            )
    rows[:, 0] = center_types
    rows[:, 1:] = counts
    return rows


def resolve_row_cache(potential) -> bool:
    """Whether an engine on ``potential`` gets a row cache.

    Exactly where in-batch dedup pays: ``batch_row_invariant`` potentials
    that expose ``network_channels`` (the NNP family, where re-evaluating
    a row costs a GEMM stack).  Table potentials go without, because a
    table lookup is already about as cheap as a cache probe.
    """
    if not getattr(potential, "batch_row_invariant", False):
        return False
    return getattr(potential, "network_channels", None) is not None


class RowEnergyCache:
    """Content-addressed map from verified row keys to row energies.

    Parameters
    ----------
    max_bytes:
        Resident-size budget in bytes (:func:`row_entry_bytes` per entry).
        Inserting past it evicts, second chance first, until the cache
        fits again.
    """

    def __init__(self, max_bytes: int = ROW_CACHE_BYTES) -> None:
        # The row width and dtype are only known at the first insert,
        # which checks again against the real entry size.
        _check_budget(max_bytes, row_entry_bytes(1, 1))
        self.max_bytes = int(max_bytes)
        # key -> slab slot, in eviction order (oldest first).
        self._slot_of: OrderedDict[int, int] = OrderedDict()
        # Slabs of stored rows, energies and reference bits; the first
        # insert allocates them and so fixes the row width, the row dtype
        # and the value dtype.
        self._rows: np.ndarray | None = None
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
        self._rows = self._values = self._referenced = None
        self._n_slots = 0
        self._free = []

    # -- lookup / insert ----------------------------------------------

    def lookup(
        self, keys: np.ndarray, rows: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Probe the cache for each ``(key, row)`` pair.

        ``rows[i]`` is the :func:`stored_rows` row whose :func:`row_keys`
        address is ``keys[i]``.  A probe hits only when the key is present
        *and* the entry's stored row equals ``rows[i]``, so a key collision
        is a miss.  Returns ``(found, values)`` where ``found`` is a boolean
        mask and ``values`` holds the cached energies (in the cache's
        value dtype) at found positions, zeros elsewhere.  Every hit sets
        its entry's reference bit, which spares it at the next eviction.
        """
        n = len(keys)
        if not self._slot_of:
            self.misses += n
            dtype = np.float64 if self._values is None else self._values.dtype
            return np.zeros(n, dtype=bool), np.zeros(n, dtype=dtype)
        get = self._slot_of.get
        slots = np.array([get(k, -1) for k in keys.tolist()], dtype=np.intp)
        # A probe without its key reads some other stored row; the key
        # test masks it.  A present key whose row differs is a collision.
        found = (slots >= 0) & (self._rows[slots] == rows).all(axis=1)
        values = np.where(found, self._values[slots], 0)
        self._referenced[slots[found]] = True
        n_hits = int(np.count_nonzero(found))
        self.hits += n_hits
        self.misses += n - n_hits
        return found, values

    def insert(
        self, keys: np.ndarray, rows: np.ndarray, values: np.ndarray
    ) -> None:
        """Store freshly evaluated rows and energies; enforce the budget.

        A key already present takes the new row and energy (after a
        collision the entry holds the newer row); a key repeated within
        one call keeps its last row.  Rows of another dtype than the slab
        raise :class:`ValueError`: a narrowing store could wrap a value.
        """
        n = len(keys)
        if n == 0:
            return
        if self._rows is None:
            _check_budget(
                self.max_bytes,
                row_entry_bytes(rows.shape[1] - 1, rows.dtype.itemsize),
            )
            self._rows = np.empty((n, rows.shape[1]), dtype=rows.dtype)
            self._values = np.empty(n, dtype=values.dtype)
            self._referenced = np.empty(n, dtype=bool)
        elif rows.dtype != self._rows.dtype:
            raise ValueError(
                f"rows of dtype {rows.dtype} cannot be stored in the cache's "
                f"{self._rows.dtype} row slab"
            )
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
        extra = self._n_slots - len(self._rows)
        if extra > 0:
            extra = max(extra, len(self._rows))  # amortised doubling
            self._rows = np.concatenate(
                [self._rows, np.empty((extra, self._rows.shape[1]), rows.dtype)]
            )
            self._values = np.concatenate(
                [self._values, np.empty(extra, self._values.dtype)]
            )
            self._referenced = np.concatenate(
                [self._referenced, np.empty(extra, bool)]
            )
        picked = list(latest.values())
        self._rows[slots] = rows[picked]
        self._values[slots] = values[picked]
        referenced = self._referenced
        referenced[slots] = False
        capacity = self.max_bytes // self._entry_bytes()
        while len(slot_of) > capacity:
            key, slot = slot_of.popitem(last=False)
            if referenced[slot]:  # hit since it was queued: second chance
                referenced[slot] = False
                slot_of[key] = slot
            else:
                free.append(slot)
                self.evictions += 1

    # -- accounting ----------------------------------------------------

    def _entry_bytes(self) -> int:
        return row_entry_bytes(self._rows.shape[1] - 1, self._rows.itemsize)

    def __len__(self) -> int:
        return len(self._slot_of)

    def memory_bytes(self) -> int:
        """Resident bytes under the analytic per-entry charge."""
        return len(self) * self._entry_bytes() if len(self) else 0

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


def _check_budget(max_bytes: int, entry_bytes: int) -> None:
    if max_bytes < entry_bytes:
        raise ValueError(
            f"row cache budget {max_bytes} B cannot hold a single "
            f"{entry_bytes} B entry"
        )
