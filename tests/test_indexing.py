"""Eq. 4 direct indexing vs the POS_ID lookup table: identical mappings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lattice import DirectIndexer, PaddedWindow, PosIdIndexer

dims = st.integers(min_value=1, max_value=5)
ghosts = st.integers(min_value=0, max_value=3)


def _all_coords(window: PaddedWindow):
    px, py, pz = window.padded_shape
    return np.meshgrid(
        np.arange(2), np.arange(px), np.arange(py), np.arange(pz), indexing="ij"
    )


class TestWindow:
    def test_site_counts(self):
        w = PaddedWindow((3, 4, 5), ghost=2)
        assert w.n_local_sites == 2 * 3 * 4 * 5
        assert w.padded_shape == (7, 8, 9)

    def test_invalid(self):
        with pytest.raises(ValueError):
            PaddedWindow((0, 1, 1), ghost=1)
        with pytest.raises(ValueError):
            PaddedWindow((1, 1, 1), ghost=-1)

    def test_is_local(self):
        w = PaddedWindow((2, 2, 2), ghost=1)
        assert w.is_local(np.array(1), np.array(1), np.array(1))
        assert not w.is_local(np.array(0), np.array(1), np.array(1))
        assert not w.is_local(np.array(3), np.array(1), np.array(1))


class TestDirectVsPosId:
    @given(nx=dims, ny=dims, nz=dims, g=ghosts)
    @settings(max_examples=30, deadline=None)
    def test_identical_mapping(self, nx, ny, nz, g):
        w = PaddedWindow((nx, ny, nz), ghost=g)
        direct = DirectIndexer(w)
        table = PosIdIndexer(w)
        s, i, j, k = _all_coords(w)
        assert np.array_equal(direct.index_of(s, i, j, k), table.index_of(s, i, j, k))

    def test_layout_is_local_first(self):
        w = PaddedWindow((2, 3, 2), ghost=1)
        direct = DirectIndexer(w)
        s, i, j, k = _all_coords(w)
        idx = direct.index_of(s, i, j, k)
        local = w.is_local(i, j, k)
        assert idx[local].max() < w.n_local_sites
        assert idx[~local].min() >= w.n_local_sites

    def test_bijective(self):
        w = PaddedWindow((3, 3, 3), ghost=2)
        direct = DirectIndexer(w)
        s, i, j, k = _all_coords(w)
        idx = np.sort(direct.index_of(s, i, j, k).ravel())
        assert np.array_equal(idx, np.arange(s.size))

    def test_zero_ghost_is_traversal_order(self):
        w = PaddedWindow((2, 2, 2), ghost=0)
        direct = DirectIndexer(w)
        s, i, j, k = _all_coords(w)
        assert np.array_equal(
            direct.index_of(s, i, j, k).ravel(), np.arange(s.size)
        )

    def test_memory_accounting(self):
        w = PaddedWindow((4, 4, 4), ghost=2)
        assert DirectIndexer(w).memory_bytes == 0
        pos = PosIdIndexer(w)
        assert pos.memory_bytes == pos.pos_id.nbytes > 0
