"""Propensity stores: linear scan vs Fenwick tree equivalence."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.propensity import FenwickPropensity, LinearPropensity

values_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    min_size=1,
    max_size=64,
)


def _bits(floats):
    """Exact bit pattern of a float sequence (``==`` equates 0.0 and -0.0)."""
    return np.asarray(floats, dtype=np.float64).tobytes()


def _filled(cls, values):
    store = cls(len(values))
    for i, v in enumerate(values):
        store.update(i, v)
    return store


class TestBasics:
    @pytest.mark.parametrize("cls", [LinearPropensity, FenwickPropensity])
    def test_total(self, cls):
        store = _filled(cls, [1.0, 2.0, 3.0])
        assert store.total == pytest.approx(6.0)

    @pytest.mark.parametrize("cls", [LinearPropensity, FenwickPropensity])
    def test_get_after_update(self, cls):
        store = _filled(cls, [1.0, 2.0, 3.0])
        store.update(1, 5.0)
        assert store.get(1) == 5.0
        assert store.total == pytest.approx(9.0)

    @pytest.mark.parametrize("cls", [LinearPropensity, FenwickPropensity])
    def test_negative_rejected(self, cls):
        store = cls(3)
        with pytest.raises(ValueError):
            store.update(0, -1.0)

    @pytest.mark.parametrize("cls", [LinearPropensity, FenwickPropensity])
    def test_select_bounds_checked(self, cls):
        store = _filled(cls, [1.0, 1.0])
        with pytest.raises(ValueError):
            store.select(2.5)
        with pytest.raises(ValueError):
            store.select(-0.1)

    @pytest.mark.parametrize("cls", [LinearPropensity, FenwickPropensity])
    def test_select_simple(self, cls):
        store = _filled(cls, [1.0, 2.0, 3.0])
        slot, rem = store.select(0.5)
        assert slot == 0 and rem == pytest.approx(0.5)
        slot, rem = store.select(1.5)
        assert slot == 1 and rem == pytest.approx(0.5)
        slot, rem = store.select(5.9)
        assert slot == 2 and rem == pytest.approx(2.9)

    @pytest.mark.parametrize("cls", [LinearPropensity, FenwickPropensity])
    def test_select_skips_zero_slots(self, cls):
        store = _filled(cls, [0.0, 2.0, 0.0, 1.0])
        slot, _ = store.select(0.0)
        assert slot == 1
        slot, _ = store.select(2.5)
        assert slot == 3

    def test_fenwick_resize(self):
        store = FenwickPropensity(3)
        store.update(2, 4.0)
        store.resize(5)
        assert store.total == 0.0
        store.update(4, 1.0)
        assert store.select(0.5)[0] == 4


class TestEquivalence:
    @given(values=values_strategy, fractions=st.lists(
        st.floats(min_value=0.0, max_value=0.999999), min_size=1, max_size=8))
    @example(values=[0.0, 1.0, 2.75e-114, 1.0], fractions=[0.5])
    @settings(max_examples=80, deadline=None)
    def test_tree_matches_linear(self, values, fractions):
        total = sum(values)
        if total <= 0:
            return
        lin = _filled(LinearPropensity, values)
        fen = _filled(FenwickPropensity, values)
        assert fen.total == pytest.approx(lin.total, rel=1e-12)
        # Each store's prefix sums are rounded differently (the linear
        # store's cumsum can absorb a tiny slot outright), each by at most
        # this much.
        rounding = len(values) * 2.0**-52 * total
        for f in fractions:
            u = f * min(lin.total, fen.total)
            if not u < min(lin.total, fen.total):  # denormal rounding edge
                continue
            slot_l, rem_l = lin.select(u)
            slot_f, rem_f = fen.select(u)
            if slot_l != slot_f:
                # Only legitimate where u sits on the boundaries between
                # the two picks, to within rounding of the exact sums.
                lo, hi = sorted((slot_l, slot_f))
                assert all(
                    abs(math.fsum(values[:k]) - u) <= rounding
                    for k in range(lo + 1, hi + 1)
                ), (slot_l, slot_f, u)
                continue
            assert rem_l == pytest.approx(rem_f, abs=1e-6 * max(total, 1.0))

    @given(values=values_strategy, updates=st.lists(
        st.tuples(st.integers(min_value=0, max_value=63),
                  st.floats(min_value=0.0, max_value=1e6)),
        max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_totals_track_under_updates(self, values, updates):
        lin = _filled(LinearPropensity, values)
        fen = _filled(FenwickPropensity, values)
        for slot, v in updates:
            if slot < len(values):
                lin.update(slot, v)
                fen.update(slot, v)
        assert fen.total == pytest.approx(lin.total, rel=1e-9, abs=1e-9)

    def test_statistical_selection_distribution(self):
        """Selections land proportionally to the weights."""
        rng = np.random.default_rng(0)
        weights = np.array([1.0, 0.0, 3.0, 6.0])
        fen = _filled(FenwickPropensity, list(weights))
        hits = np.zeros(4)
        for _ in range(4000):
            slot, _ = fen.select(rng.random() * fen.total)
            hits[slot] += 1
        freq = hits / hits.sum()
        assert np.allclose(freq, weights / weights.sum(), atol=0.03)


class TestUpdateMany:
    """Shared batch-update contract of both store implementations."""

    @pytest.mark.parametrize("cls", [LinearPropensity, FenwickPropensity])
    def test_matches_sequential_updates(self, cls):
        values = [1.0, 0.0, 3.0, 2.5, 0.25]
        batch = _filled(cls, values)
        sequential = _filled(cls, values)
        slots = np.array([4, 0, 2])
        news = np.array([0.75, 9.0, 0.0])
        batch.update_many(slots, news)
        for s, v in zip(slots, news):
            sequential.update(int(s), float(v))
        assert np.array_equal(batch.values, sequential.values)
        assert batch.total == sequential.total
        if cls is FenwickPropensity:
            assert np.array_equal(batch.tree, sequential.tree)

    @pytest.mark.parametrize("cls", [LinearPropensity, FenwickPropensity])
    def test_duplicate_slots_last_write_wins(self, cls):
        store = _filled(cls, [1.0, 1.0, 1.0])
        store.update_many([1, 1, 1], [5.0, 7.0, 2.0])
        assert store.get(1) == 2.0

    @pytest.mark.parametrize("cls", [LinearPropensity, FenwickPropensity])
    def test_empty_batch_is_a_noop(self, cls):
        store = _filled(cls, [1.0, 2.0])
        store.update_many([], [])
        assert store.total == pytest.approx(3.0)

    @pytest.mark.parametrize("cls", [LinearPropensity, FenwickPropensity])
    def test_length_mismatch_rejected(self, cls):
        store = cls(3)
        with pytest.raises(ValueError):
            store.update_many([0, 1], [1.0])

    @pytest.mark.parametrize("cls", [LinearPropensity, FenwickPropensity])
    def test_negative_values_rejected(self, cls):
        store = cls(3)
        with pytest.raises(ValueError):
            store.update_many([0, 1], [1.0, -0.5])

    @pytest.mark.parametrize("cls", [LinearPropensity, FenwickPropensity])
    def test_out_of_range_slots_rejected(self, cls):
        store = cls(3)
        with pytest.raises(IndexError):
            store.update_many([3], [1.0])
        with pytest.raises(IndexError):
            store.update_many([-1], [1.0])

    @given(
        values=values_strategy,
        updates=st.lists(
            st.tuples(st.integers(min_value=0, max_value=63),
                      st.floats(min_value=0.0, max_value=1e6)),
            max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_fuzz_batch_equals_sequential_bitwise(self, values, updates):
        updates = [(s, v) for s, v in updates if s < len(values)]
        batch_lin = _filled(LinearPropensity, values)
        batch_fen = _filled(FenwickPropensity, values)
        seq_lin = _filled(LinearPropensity, values)
        seq_fen = _filled(FenwickPropensity, values)
        if updates:
            slots = np.array([s for s, _ in updates], dtype=np.int64)
            news = np.array([v for _, v in updates])
            batch_lin.update_many(slots, news)
            batch_fen.update_many(slots, news)
            for s, v in updates:
                seq_lin.update(s, v)
                seq_fen.update(s, v)
        assert np.array_equal(batch_lin.values, seq_lin.values)
        assert np.array_equal(batch_fen.values, seq_fen.values)
        assert np.array_equal(batch_fen.tree, seq_fen.tree)
        assert batch_fen.total == seq_fen.total


class TestUpdateManyLargeTree:
    """Batch updates on an 8192-slot tree, sparse through dense.

    Whatever strategy ``update_many`` picks for a batch size (walking the
    touched ancestor chains, recomputing every node), the result must be
    bitwise what sequential scalar updates leave — same additions, same
    order.  The sizes straddle every cost threshold the store has had.
    """

    N = 8192

    def _pair(self):
        rng = np.random.default_rng(17)
        values = rng.uniform(0.0, 1e3, self.N)
        batch = FenwickPropensity(self.N)
        seq = FenwickPropensity(self.N)
        batch.update_many(np.arange(self.N), values)
        for i, v in enumerate(values):
            seq.update(i, float(v))
        return batch, seq

    @pytest.mark.parametrize("n_unique", [1, 50, 400, 1023, 1024, 2048, 8192])
    def test_batch_equals_sequential_bitwise(self, n_unique):
        batch, seq = self._pair()
        rng = np.random.default_rng(23)
        slots = rng.choice(self.N, size=n_unique, replace=False)
        news = rng.uniform(0.0, 1e3, n_unique)
        batch.update_many(slots, news)
        for slot, v in zip(slots, news):
            seq.update(int(slot), float(v))
        assert _bits(batch.values) == _bits(seq.values)
        assert _bits(batch.tree) == _bits(seq.tree)
        assert batch.total == seq.total

    def test_sample_draws_agree_after_large_batch(self):
        batch, seq = self._pair()
        slots = np.random.default_rng(29).choice(self.N, 400, replace=False)
        batch.update_many(slots, np.zeros(len(slots)))
        for slot in slots:
            seq.update(int(slot), 0.0)
        for frac in (0.0, 0.25, 0.5, 0.999999):
            assert batch.select(frac * batch.total) == seq.select(
                frac * seq.total
            )


class TestNonFiniteRejected:
    """NaN / inf propensities end in a structured error (``v < 0`` is false
    for NaN, so a sign check alone lets them poison ``total``)."""

    @pytest.mark.parametrize("cls", [LinearPropensity, FenwickPropensity])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_update_names_slot_and_value(self, cls, bad):
        store = _filled(cls, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match=rf"slot 1 .*{bad!r}"):
            store.update(1, bad)
        assert store.total == pytest.approx(6.0)

    @pytest.mark.parametrize("cls", [LinearPropensity, FenwickPropensity])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.5])
    def test_update_many_names_slot_and_value_and_writes_nothing(
        self, cls, bad
    ):
        store = cls(8)
        with pytest.raises(ValueError, match=rf"slot 5 .*{bad!r}"):
            store.update_many([0, 5, 2], [1.0, bad, 2.0])
        assert store.total == 0.0
        store.update_many([0, 2], [1.0, 2.0])
        assert store.select(1.5)[0] == 2


class TestHistoryIndependence:
    """The tree must be a pure function of the values (checkpoint-exactness)."""

    @given(
        values=values_strategy,
        updates=st.lists(
            st.tuples(st.integers(min_value=0, max_value=63),
                      st.floats(min_value=0.0, max_value=1e6)),
            max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_rebuilt_tree_matches_updated_tree(self, values, updates):
        incremental = _filled(FenwickPropensity, values)
        for slot, v in updates:
            if slot < len(values):
                incremental.update(slot, v)
        rebuilt = FenwickPropensity(len(values))
        for i, v in enumerate(incremental.values):
            rebuilt.update(i, float(v))
        assert np.array_equal(incremental.tree, rebuilt.tree)
        assert incremental.total == rebuilt.total

    def test_update_order_does_not_matter(self):
        a = FenwickPropensity(5)
        b = FenwickPropensity(5)
        vals = [0.1, 0.2, 0.3, 0.4, 0.5]
        for i in range(5):
            a.update(i, vals[i])
        for i in reversed(range(5)):
            b.update(i, vals[i])
        assert np.array_equal(a.tree, b.tree)


    @given(
        n0=st.integers(min_value=0, max_value=40),
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("update"), st.integers(0, 10**6),
                          st.floats(min_value=0.0, max_value=1e6)),
                st.tuples(
                    st.just("update_many"),
                    st.lists(st.tuples(
                        st.integers(0, 10**6),
                        st.floats(min_value=0.0, max_value=1e6)),
                        max_size=40),
                ),
                st.tuples(st.just("grow"), st.integers(0, 70)),
                st.tuples(st.just("resize"), st.integers(0, 40)),
            ),
            max_size=25,
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_any_interleaving_equals_from_scratch_rebuild(self, n0, ops):
        """``tree`` is a pure function of ``values`` after *any* history of
        update / update_many (duplicates included) / grow / resize, and
        ``values`` is what a plain list would hold."""
        store = FenwickPropensity(n0)
        model = [0.0] * n0
        for op in ops:
            if op[0] == "update" and model:
                slot = op[1] % len(model)
                store.update(slot, op[2])
                model[slot] = op[2]
            elif op[0] == "update_many" and model:
                pairs = [(s % len(model), v) for s, v in op[1]]
                store.update_many([s for s, _ in pairs], [v for _, v in pairs])
                for s, v in pairs:  # duplicates: last write wins
                    model[s] = v
            elif op[0] == "grow":
                store.grow(len(model) + op[1])
                model.extend([0.0] * op[1])
            elif op[0] == "resize":
                store.resize(op[1])
                model = [0.0] * op[1]
            assert store.n_slots == len(model)
            assert _bits(store.values) == _bits(model)
            scratch = FenwickPropensity(len(model))
            scratch.values[:] = model
            scratch._rebuild()
            assert _bits(store.tree) == _bits(scratch.tree)
            assert store.total == scratch.total
