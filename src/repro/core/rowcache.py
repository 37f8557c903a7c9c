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

The cache is one open-addressing table held in NumPy arrays, so a probe
is a handful of array operations over the whole batch of codes, not a
loop over them:

* **Layout.**  A power-of-two table of int64 codes (row codes are
  ``>= 0``, so ``-1`` marks an empty slot), and beside it, slot for slot,
  a value slab in the dtype of the first insert.  Energies round-trip
  through the slab in their own dtype, so every bit is preserved.  A
  code's home slot is a Fibonacci multiply-shift of its bits; collisions
  probe linearly.
* **Probe.**  A lookup resolves all its codes together: each reads its
  home slot, and the few that meet neither their code nor an empty slot
  read :data:`_WINDOW` slots a step until they do.  An insert probes its
  own codes the same way, then writes each new code into the empty slot
  where its probe stopped (and reads it back: of two codes that stopped
  at one slot, one probes on).  The evaluator looks up the code of every
  row of a batch and inserts only the distinct codes that missed, so an
  insert is a small fraction of the lookup before it.
* **Load factor.**  Entries stay at most half the table, so every probe
  ends at an empty slot.  An insert that would pass one half rehashes
  first, in one vectorised pass: the codes sorted by their new home slot
  land at ``i + max_{j <= i}(home_j - j)`` (``np.maximum.accumulate``),
  which is where inserting them one by one in that order would put them.
  The new table is the smallest power of two over twice the entries it
  must hold, so an entry costs at most four slots
  (:data:`ROW_ENTRY_BYTES`).
* **Budget.**  The byte budget (:data:`ROW_CACHE_BYTES` unless the
  constructor is given another) is a bound, not a replacement policy: an
  insert whose new codes would take the cache past it first drops every
  entry (each counts as an eviction), and the cache then holds exactly
  the insert's codes, or the last ones that fit.  A code already present
  takes its new energy in place; within one insert the last repeat of a
  code wins.  A hit returns the bits a fresh evaluation would, so a flush
  only changes *when* a row is evaluated again, never its energy.

Contents are deliberately *not* checkpointed — a restart rebuilds the
cache from cold, bit-identically — but the monotonic hit/miss/eviction
counters are, so resumed runs report honest totals.
"""

from __future__ import annotations

import numpy as np

#: Empty marker of the code table (row codes are >= 0).
_EMPTY = -1

#: Smallest table: four slots hold one entry at load one half.
_MIN_SLOTS = 4

#: Slots one probe step reads per unresolved key.
_WINDOW = 16
_STEPS = np.arange(_WINDOW)

#: Fibonacci hashing multiplier, ``2**64`` over the golden ratio, as the
#: int64 of the same bits.
_FIBONACCI = np.int64(0x9E3779B97F4A7C15 - 2**64)

#: Worst-case resident bytes of one entry: a table slot holds an int64
#: code and a value of at most 8 bytes; a rehash leaves the table more
#: than a quarter full, and its entry count does not fall below that until
#: the next rehash or clear, so an entry owns at most four slots:
#: ``4 * (8 + 8) = 64``.  ``tensorkmc_memory_model(row_cache=...)`` charges
#: the same figure and :meth:`RowEnergyCache.memory_bytes` reports it, and
#: the cache's arrays never take more (``tests/test_rowcache.py``).
ROW_ENTRY_BYTES = 4 * (8 + 8)

#: Default resident-size budget of a :class:`RowEnergyCache`: one miss
#: chunk's worth (``MISS_CHUNK_BYTES``), so the cache at most doubles the
#: miss pipeline's share of ``tensorkmc_memory_model``'s peak.  That is
#: 393,216 entries; a 20 s run of the rcut 6.5 benchmark workload meets
#: about 54k distinct rows, so steady runs never flush.
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
        An insert whose new codes would pass it drops every entry first.
    """

    def __init__(self, max_bytes: int = ROW_CACHE_BYTES) -> None:
        if max_bytes < ROW_ENTRY_BYTES:
            raise ValueError(
                f"row cache budget {max_bytes} B cannot hold a single "
                f"{ROW_ENTRY_BYTES} B entry"
            )
        self.max_bytes = int(max_bytes)
        self._potential_token: tuple[int, int] | None = None
        self.clear()
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
        # The table, slot for slot: codes and values (allocated by the
        # first insert, which fixes their dtype).
        self._codes = np.empty(0, dtype=np.int64)
        self._values: np.ndarray | None = None
        self._shift = 64  # 64 - log2(table slots)
        self._live = 0

    # -- lookup / insert ----------------------------------------------

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probe the cache for each row code in ``keys``.

        Returns ``(found, values)`` where ``found`` is a boolean mask and
        ``values`` holds the cached energies (in the cache's value dtype)
        at found positions, zeros elsewhere.  Every key counts as one hit
        or one miss, repeats included: the evaluator probes every row.
        """
        keys = np.asarray(keys, dtype=np.int64)
        n = len(keys)
        if not self._live:
            self.misses += n
            dtype = np.float64 if self._values is None else self._values.dtype
            return np.zeros(n, dtype=bool), np.zeros(n, dtype=dtype)
        slots, found = self._find(keys)
        # A missed code's slot is empty, and its value 0.
        values = self._values[slots]
        n_hits = int(np.count_nonzero(found))
        self.hits += n_hits
        self.misses += n - n_hits
        return found, values

    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Store freshly evaluated row energies; enforce the budget.

        A code already present takes the new energy; a code repeated within
        one call keeps its last energy.  If the new codes would take the
        cache past its budget, every entry is dropped first and the cache
        keeps the call's codes, the last ones if they do not all fit.
        """
        keys = np.asarray(keys, dtype=np.int64)
        values = np.asarray(values)
        if len(keys) == 0:
            return
        if np.count_nonzero(keys[1:] <= keys[:-1]):  # the evaluator's ascend
            keys, values = _last_repeat_wins(keys, values)
        if len(self._codes):
            slots, present = self._find(keys)
        else:
            slots, present = None, np.zeros(len(keys), dtype=bool)
        new = ~present
        n_new = int(np.count_nonzero(new))
        capacity = self.max_bytes // ROW_ENTRY_BYTES
        if self._live + n_new > capacity:
            # Flush: the table is rebuilt from the call's codes alone.
            self.evictions += self._live
            self._codes, self._live = self._codes[:0], 0
            self._rehash(keys[-capacity:], values[-capacity:])
            return
        if n_new < len(keys):
            self._values[slots[present]] = values[present]
            keys, values, slots = keys[new], values[new], slots[new]
        if 2 * (self._live + n_new) > len(self._codes):
            self._rehash(keys, values)
        else:
            self._place(keys, values, slots)

    # -- the table -----------------------------------------------------

    def _home(self, keys: np.ndarray) -> np.ndarray:
        """Home slots: Fibonacci multiply-shift of the codes' bits."""
        # The top bits of the wrapped product, through an arithmetic shift
        # and a mask.
        return keys * _FIBONACCI >> self._shift & len(self._codes) - 1

    def _find(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(slots, found)``: each code's slot or, for an absent code, the
        empty slot where its probe stopped; and which codes are present.

        Every code reads its home slot first, where most resolve; the rest
        go on in a vectorised loop over the codes still unresolved, each
        step reading the next :data:`_WINDOW` slots per code, until each
        meets its own code or an empty slot.
        """
        codes = self._codes
        mask = len(codes) - 1
        slots = self._home(keys)
        start = 1
        held = codes[slots]
        found = held == keys
        pending = np.flatnonzero(~found & (held != _EMPTY))
        while pending.size:
            # A code still unresolved stands on the first slot it read.
            probe = (slots[pending, None] + (start + _STEPS)) & mask
            seen = codes[probe]
            stop = (seen == keys[pending, None]) | (seen == _EMPTY)
            at = probe[np.arange(len(pending)), stop.argmax(axis=1)]
            slots[pending] = at
            held = codes[at]
            hit = held == keys[pending]
            found[pending] = hit
            pending = pending[~hit & (held != _EMPTY)]
            start = _WINDOW
        return slots, found

    def _place(
        self, keys: np.ndarray, values: np.ndarray, at: np.ndarray
    ) -> None:
        """Store absent, distinct codes.

        ``at`` is where each code's probe stopped: an empty slot on its
        path, so the code is written there and read back.  Of several codes
        that stopped at one slot the one whose code reads back wins; each
        other one then, step by step, reads :data:`_WINDOW` slots from
        where it stands and writes its code into the first empty one,
        until its code reads back.
        """
        codes = self._codes
        mask = len(codes) - 1
        slots = at
        codes[slots] = keys
        pending = np.flatnonzero(codes[slots] != keys)
        at = slots[pending]
        while pending.size:
            probe = (at[:, None] + _STEPS) & mask
            empty = codes[probe] == _EMPTY
            first = empty.argmax(axis=1)
            rows = np.flatnonzero(empty[np.arange(len(pending)), first])
            target = probe[rows, first[rows]]
            codes[target] = keys[pending[rows]]
            won = codes[target] == keys[pending[rows]]
            slots[pending[rows[won]]] = target[won]
            at = at + np.where(empty.any(axis=1), first, _WINDOW)
            left = np.ones(len(pending), dtype=bool)
            left[rows[won]] = False
            pending, at = pending[left], at[left]
        self._values[slots] = values
        self._live += len(keys)

    def _rehash(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Rebuild the table with the entries and the absent, distinct
        ``keys``, at most half full.

        The codes are bulk-loaded in order of their new home slots: the
        ``i``-th lands at ``i + max_{j <= i}(home_j - j)``, and the run that
        spills past the last slot wraps to the front ahead of every other
        code, exactly as one-by-one linear-probing inserts would.
        """
        old = np.flatnonzero(self._codes >= 0)
        n = len(old) + len(keys)
        n_slots = max(_MIN_SLOTS, 1 << (2 * n).bit_length())
        dtype = values.dtype if self._values is None else self._values.dtype
        codes = np.concatenate([self._codes[old], keys])
        entries = (
            np.concatenate([self._values[old], values]).astype(dtype)
            if self._values is not None else values
        )
        self._codes = np.full(n_slots, _EMPTY, dtype=np.int64)
        self._shift = 65 - n_slots.bit_length()
        home = self._home(codes)
        order = np.argsort(home)
        home = home[order]
        rank = np.arange(n)
        placed = rank + np.maximum.accumulate(home - rank)
        spill = np.count_nonzero(placed >= n_slots)
        if spill:
            order = np.roll(order, spill)
            home = np.concatenate([rank[:spill], home[:-spill]])
            placed = rank + np.maximum.accumulate(home - rank)
        slots = np.empty(n, dtype=np.intp)
        slots[order] = placed
        self._codes[slots] = codes
        self._values = np.zeros(n_slots, dtype=dtype)  # empty slots hold 0
        self._values[slots] = entries
        self._live = n

    # -- accounting ----------------------------------------------------

    def __len__(self) -> int:
        return self._live

    def memory_bytes(self) -> int:
        """Resident bytes under the per-entry charge (an upper bound on
        the table's arrays)."""
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


def _last_repeat_wins(
    keys: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct code once, in order of its first occurrence, with the
    value of its last."""
    unique, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    last = np.zeros(len(unique), dtype=np.intp)
    np.maximum.at(last, inverse, np.arange(len(keys)))
    order = np.argsort(first)
    return unique[order], values[last[order]]
