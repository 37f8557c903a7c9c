"""Propensity bookkeeping — linear scan vs the paper's tree strategy.

Event selection in KMC draws ``u ~ U[0, total)`` and finds the first slot
whose cumulative propensity exceeds ``u``.  The baseline implementation
recomputes a cumulative sum every step (O(n)); the paper's "tree strategy for
propensity update" (Sec. 4.4) keeps a Fenwick tree so that updates and
selections are O(log n).  The engines always use the tree; the linear store
implements the same interface and selection semantics and stays as the
reference the tree is tested against and the baseline of the propensity
ablation benchmark.

The linear store is a NumPy array; the Fenwick tree is host-side Python
lists (see :class:`FenwickPropensity`).  Validation (`_checked_value`, `_checked_batch`) is shared: a propensity
must be finite and non-negative, and a violation raises ``ValueError``
naming the slot and the value — a NaN or infinite rate from a bad potential
must end in a structured error, never in an undefined selection.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Tuple

import numpy as np

__all__ = ["PropensityStore", "LinearPropensity", "FenwickPropensity"]


_INF = float("inf")


def _bad_value(slot: int, value: float) -> ValueError:
    return ValueError(
        f"propensity of slot {slot} must be finite and >= 0, got {value!r}"
    )


def _checked_value(slot: int, value: float) -> float:
    """``value`` as a Python float; ``ValueError`` unless finite and >= 0."""
    value = float(value)
    if not 0.0 <= value < _INF:  # NaN fails both comparisons
        raise _bad_value(slot, value)
    return value


def _checked_batch(
    slots, values, n_slots: int
) -> Tuple[List[int], List[float]]:
    """Validate an ``update_many`` batch shared by every store.

    Returns ``(slots, values)`` as flat Python lists, checked in one pass
    before the caller writes anything.  Raises ``ValueError`` on length
    mismatch or a negative / non-finite propensity and ``IndexError`` on
    out-of-range slots (negative slots included — indexing would silently
    wrap them).
    """
    s = np.asarray(slots, dtype=np.int64).ravel().tolist()
    v = np.asarray(values, dtype=np.float64).ravel().tolist()
    if len(s) != len(v):
        raise ValueError(
            f"update_many length mismatch: {len(s)} slots vs {len(v)} values"
        )
    for slot, value in zip(s, v):
        if not 0.0 <= value < _INF:
            raise _bad_value(slot, value)
        if not 0 <= slot < n_slots:
            raise IndexError(f"slot {slot} out of range [0, {n_slots})")
    return s, v


class PropensityStore(ABC):
    """Slot-indexed non-negative propensities with weighted selection.

    Stores support *dynamic slot populations* (used by the shared event
    kernel when vacancies enter or leave a rank's active region): ``grow``
    extends the slot range while preserving existing values, and freed slots
    are simply parked at propensity zero so they can never be selected.
    ``select`` additionally records ``last_select_depth`` — the number of
    elementary comparisons of the most recent selection — which the kernel
    aggregates into its instrumentation counters.
    """

    #: Comparisons performed by the most recent ``select`` call.
    last_select_depth: int = 0

    @abstractmethod
    def resize(self, n_slots: int) -> None:
        """Reset to ``n_slots`` slots, all zero."""

    @abstractmethod
    def grow(self, n_slots: int) -> None:
        """Extend to ``n_slots`` slots, preserving values (new slots zero)."""

    @property
    @abstractmethod
    def n_slots(self) -> int:
        """Number of addressable slots."""

    @abstractmethod
    def update(self, slot: int, value: float) -> None:
        """Set the propensity of one slot."""

    def update_many(self, slots, values) -> None:
        """Set a batch of slot propensities in one call.

        Semantically equivalent to ``for s, v in zip(slots, values):
        update(s, v)`` — duplicate slots resolve last-write-wins — but
        concrete stores override this with a vectorized implementation so
        the event kernel can push a whole stale batch per refresh.
        """
        s, v = _checked_batch(slots, values, self.n_slots)
        for slot, value in zip(s, v):
            self.update(slot, value)

    @abstractmethod
    def get(self, slot: int) -> float:
        """Current propensity of a slot."""

    @property
    @abstractmethod
    def total(self) -> float:
        """Sum of all propensities."""

    @abstractmethod
    def select(self, u: float) -> Tuple[int, float]:
        """First slot with cumulative propensity > ``u``.

        Returns ``(slot, remainder)`` where ``remainder`` is ``u`` minus the
        cumulative propensity of all earlier slots (used to pick the
        direction inside the slot).
        """


class LinearPropensity(PropensityStore):
    """O(n) cumulative-sum selection — the non-tree reference."""

    def __init__(self, n_slots: int = 0) -> None:
        self.resize(n_slots)

    def resize(self, n_slots: int) -> None:
        self.values = np.zeros(n_slots, dtype=np.float64)

    def grow(self, n_slots: int) -> None:
        n_slots = int(n_slots)
        if n_slots < self.n_slots:
            raise ValueError(
                f"grow cannot shrink: {n_slots} < {self.n_slots} slots"
            )
        if n_slots > self.n_slots:
            self.values = np.concatenate(
                [self.values, np.zeros(n_slots - self.n_slots)]
            )

    @property
    def n_slots(self) -> int:
        return int(self.values.shape[0])

    def update(self, slot: int, value: float) -> None:
        self.values[slot] = _checked_value(slot, value)

    def update_many(self, slots, values) -> None:
        s, v = _checked_batch(slots, values, self.n_slots)
        self.values[np.asarray(s, dtype=np.int64)] = v

    def get(self, slot: int) -> float:
        return float(self.values[slot])

    @property
    def total(self) -> float:
        return float(np.sum(self.values))

    def select(self, u: float) -> Tuple[int, float]:
        cum = np.cumsum(self.values)
        if not 0.0 <= u < float(cum[-1]):
            raise ValueError(f"u={u!r} outside [0, total={float(cum[-1])!r})")
        slot = int(np.searchsorted(cum, u, side="right"))
        self.last_select_depth = self.n_slots
        prev = float(cum[slot - 1]) if slot > 0 else 0.0
        return slot, u - prev


class FenwickPropensity(PropensityStore):
    """Fenwick (binary indexed) tree: O(log n) update and selection.

    This is the "tree strategy for propensity update" used in all the
    paper's scalability runs.

    ``values`` and ``tree`` are plain Python lists of floats — the one
    representation scalar ``update``, ``update_many``, ``total`` and
    ``select`` all work on in place.  Every operation touches O(log n)
    nodes a few at a time, which the interpreter does faster on list
    elements than through per-element array dispatch, and nothing is ever
    copied per call.
    """

    #: A batch touching at least 1/``REBUILD_FRACTION`` of the capacity
    #: recomputes every node in one ascending sweep instead of collecting
    #: the touched ancestor chains first.  Same nodes, same sums, same
    #: bits either way — pure cost tuning.
    REBUILD_FRACTION = 8

    def __init__(self, n_slots: int = 0) -> None:
        self.resize(n_slots)

    def resize(self, n_slots: int) -> None:
        self.n = int(n_slots)
        # size rounded up to a power of two for the descend-select.
        self._cap = 1
        while self._cap < max(self.n, 1):
            self._cap *= 2
        self.tree: List[float] = [0.0] * (self._cap + 1)
        self.values: List[float] = [0.0] * self.n

    def grow(self, n_slots: int) -> None:
        n_slots = int(n_slots)
        if n_slots < self.n:
            raise ValueError(f"grow cannot shrink: {n_slots} < {self.n} slots")
        if n_slots <= self._cap:
            # The tree already spans the new slots (they aggregate as zero);
            # only the dense value list needs extending.
            self.values.extend([0.0] * (n_slots - self.n))
            self.n = n_slots
            return
        old = self.values
        self.resize(n_slots)
        self.values[: len(old)] = old
        self._rebuild()

    @property
    def n_slots(self) -> int:
        return self.n

    def update(self, slot: int, value: float) -> None:
        value = _checked_value(slot, value)
        if not 0 <= slot < self.n:
            raise IndexError(f"slot {slot} out of range [0, {self.n})")
        self.values[slot] = value
        self._recompute(self._chain(int(slot) + 1))

    def update_many(self, slots, values) -> None:
        s, v = _checked_batch(slots, values, self.n)
        dense = self.values
        for slot, value in zip(s, v):
            dense[slot] = value  # duplicates: last write wins, as sequentially
        if len(s) * self.REBUILD_FRACTION >= self._cap:
            self._rebuild()
            return
        # Union of the slots' ancestor chains, each node once.  A chain that
        # reaches an already-collected node shares the rest of its way up.
        nodes = set()
        for slot in s:
            for i in self._chain(slot + 1):
                if i in nodes:
                    break
                nodes.add(i)
        self._recompute(sorted(nodes))

    def _chain(self, i: int):
        """Node ``i`` and its ancestors, bottom-up (ascending)."""
        while i <= self._cap:
            yield i
            i += i & (-i)

    def _recompute(self, nodes) -> None:
        """Recompute ``nodes`` (ascending) exactly from their children.

        A node is its own value plus its child nodes ``i - k`` for
        ``k = 1, 2, 4, ... < lowbit(i)``, added in that order — never a
        propagated float delta.  The tree is then a pure function of
        ``values``, independent of update history, which is what makes
        checkpoint/restart bit-exact (a rebuilt tree matches an
        incrementally-updated one).  Children sit at smaller indices than
        their parents, so ascending order reads only finished nodes.
        """
        tree, values, n = self.tree, self.values, self.n
        for i in nodes:
            total = values[i - 1] if i <= n else 0.0
            k = 1
            low = i & (-i)
            while k < low:
                total += tree[i - k]
                k <<= 1
            tree[i] = total

    def _rebuild(self) -> None:
        """Recompute the whole tree from ``values``."""
        self._recompute(range(1, self._cap + 1))

    def get(self, slot: int) -> float:
        return self.values[slot]

    @property
    def total(self) -> float:
        return self.tree[self._cap]

    def select(self, u: float) -> Tuple[int, float]:
        tree, cap = self.tree, self._cap
        total = tree[cap]
        if not 0.0 <= u < total:
            raise ValueError(f"u={u!r} outside [0, total={total!r})")
        pos = 0
        rem = u
        step = cap
        depth = 0
        while step > 0:
            nxt = pos + step
            if nxt <= cap and tree[nxt] <= rem:
                rem -= tree[nxt]
                pos = nxt
            step //= 2
            depth += 1
        self.last_select_depth = depth
        slot = pos  # pos = count of slots with cumulative <= u
        if slot >= self.n:  # numerical edge: clamp onto the last live slot
            slot = self.n - 1
            rem = min(rem, self.values[slot])
        return slot, rem
