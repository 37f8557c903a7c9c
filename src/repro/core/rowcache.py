"""Persistent row-energy memoization for the evaluator miss path.

``VacancySystemEvaluator._dedup_rows`` already proves that most rows in a
dilute alloy recur — it packs each ``(centre species, shell counts)`` row
into one int64 signature and collapses duplicates — but the dedup only
lives *within one batch* and then forgets.  The paper's VET hash cache
(Sec. 3.4) observes that the set of distinct local environments over a
trajectory is tiny and stable, so row energies should be computed once
per *environment*, not once per batch.  :class:`RowEnergyCache` makes the
dedup persistent in time (across batches and steps) and in space (one
cache shared across campaign replicas).

Soundness rests on exactly the same contract as in-batch dedup: the
potential must be ``batch_row_invariant`` — an identical row produces
bit-identical energy regardless of the batch it appears in.  Under that
contract a cache hit returns the same bits a fresh evaluation would, so
trajectories with the cache on are bit-identical to ``row_cache="off"``.

Cached values are stored as Python scalars keyed by the packed Python-int
signature.  The float32/float64 -> Python float widening is exact and the
narrowing back to the original dtype is the identity, so the round-trip
preserves every bit.  Eviction is LRU (an ``OrderedDict`` clock): every
hit touches its entry, inserts append, and the byte budget pops from the
cold end.  Contents are deliberately *not* checkpointed — a restart
rebuilds the cache from cold, bit-identically — but the monotonic
hit/miss/eviction counters are, so resumed runs report honest totals.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

#: Allowed ``row_cache`` modes: ``auto`` turns the cache on exactly where
#: in-batch dedup turns on (network potentials with the
#: ``batch_row_invariant`` guarantee), ``on`` forces attachment (the cache
#: is still only consulted where dedup runs), ``off`` disables it.
ROW_CACHE_MODES = ("auto", "on", "off")

#: Analytic per-entry byte charge: one packed int64 key plus one float64
#: value.  ``tensorkmc_memory_model(row_cache=...)`` charges the same
#: constant, and :meth:`RowEnergyCache.memory_bytes` reports it, so the
#: model is validated against live bytes exactly like delta snapshots.
ROW_ENTRY_BYTES = 16


def resolve_row_cache(mode: str, potential) -> bool:
    """Decide whether a row cache should be active for ``potential``.

    Mirrors the dedup gate in the evaluator: ``auto`` enables
    the cache only for ``batch_row_invariant`` potentials that expose
    ``network_channels`` (the NNP family, where re-evaluating a row costs
    a GEMM stack); table potentials keep it off by default because a
    table lookup is already about as cheap as a cache probe.
    """
    if mode not in ROW_CACHE_MODES:
        raise ValueError(
            f"unknown row_cache mode {mode!r}; allowed modes: {ROW_CACHE_MODES}"
        )
    if mode == "off":
        return False
    if mode == "on":
        return True
    if not getattr(potential, "batch_row_invariant", False):
        return False
    return getattr(potential, "network_channels", None) is not None


class RowEnergyCache:
    """Content-addressed LRU map from packed row signatures to energies.

    Parameters
    ----------
    max_bytes:
        Resident-size budget in bytes (``ROW_ENTRY_BYTES`` per entry);
        ``None`` means unbounded.  Inserting past the budget evicts from
        the least-recently-used end until the cache fits again.
    """

    def __init__(self, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes < ROW_ENTRY_BYTES:
            raise ValueError(
                f"row cache budget {max_bytes} B cannot hold a single "
                f"{ROW_ENTRY_BYTES} B entry"
            )
        self.max_bytes = max_bytes
        self._entries: OrderedDict[int, float] = OrderedDict()
        self._value_dtype: np.dtype | None = None
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
        self._entries.clear()
        self._value_dtype = None

    # -- lookup / insert ----------------------------------------------

    def lookup(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Probe the cache for each packed key.

        Returns ``(found, values)`` where ``found`` is a boolean mask and
        ``values`` holds the cached energies (in the cache's value dtype)
        at found positions, zeros elsewhere.  Every hit is touched to the
        hot end of the LRU clock.
        """
        entries = self._entries
        n = len(keys)
        dtype = self._value_dtype if self._value_dtype is not None else np.float64
        found = np.zeros(n, dtype=bool)
        values = np.zeros(n, dtype=dtype)
        hits = 0
        for i, key in enumerate(keys.tolist()):
            value = entries.get(key)
            if value is not None:
                entries.move_to_end(key)
                found[i] = True
                values[i] = value
                hits += 1
        self.hits += hits
        self.misses += n - hits
        return found, values

    def insert(self, keys: np.ndarray, values: np.ndarray) -> None:
        """Insert freshly evaluated rows and enforce the byte budget."""
        if len(keys) == 0:
            return
        if self._value_dtype is None:
            self._value_dtype = values.dtype
        entries = self._entries
        for key, value in zip(keys.tolist(), values.tolist()):
            entries[key] = value
            entries.move_to_end(key)
        if self.max_bytes is not None:
            while len(entries) * ROW_ENTRY_BYTES > self.max_bytes:
                entries.popitem(last=False)
                self.evictions += 1

    # -- accounting ----------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def memory_bytes(self) -> int:
        """Resident bytes under the analytic per-entry charge."""
        return len(self._entries) * ROW_ENTRY_BYTES

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
        out["row_cache_entries"] = len(self._entries)
        out["row_cache_bytes"] = self.memory_bytes()
        return out
