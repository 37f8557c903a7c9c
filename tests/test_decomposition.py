"""Domain decomposition: exact partition, ownership, neighbours."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.decomposition import GridDecomposition, choose_grid


class TestChooseGrid:
    def test_product_matches(self):
        for n in (1, 2, 4, 6, 8, 12):
            grid = choose_grid(n, (24, 24, 24))
            assert grid[0] * grid[1] * grid[2] == n

    def test_prefers_balance(self):
        assert sorted(choose_grid(8, (24, 24, 24))) == [2, 2, 2]

    def test_respects_box_shape(self):
        grid = choose_grid(4, (32, 8, 8))
        # the long axis should take the split
        assert grid[0] == 4

    def test_impossible_rejected(self):
        with pytest.raises(ValueError):
            choose_grid(64, (2, 2, 2))


class TestPartition:
    @given(
        n=st.sampled_from([1, 2, 3, 4, 6, 8]),
        nx=st.integers(min_value=6, max_value=20),
        ny=st.integers(min_value=6, max_value=20),
        nz=st.integers(min_value=6, max_value=20),
    )
    @settings(max_examples=30, deadline=None)
    def test_boxes_tile_the_domain(self, n, nx, ny, nz):
        shape = (nx, ny, nz)
        decomp = GridDecomposition(shape, choose_grid(n, shape))
        seen = np.zeros(shape, dtype=np.int64)
        for r in range(decomp.n_ranks):
            box = decomp.box_of_rank(r)
            seen[box.lo[0]:box.hi[0], box.lo[1]:box.hi[1], box.lo[2]:box.hi[2]] += 1
        assert np.all(seen == 1)

    def test_owner_matches_boxes(self):
        shape = (10, 12, 14)
        decomp = GridDecomposition(shape, (2, 3, 2))
        owner = np.full(shape, -1, dtype=np.int64)
        for r in range(decomp.n_ranks):
            box = decomp.box_of_rank(r)
            owner[box.lo[0]:box.hi[0], box.lo[1]:box.hi[1], box.lo[2]:box.hi[2]] = r
            assert np.count_nonzero(owner == r) == box.n_cells
        assert np.all(owner >= 0)
        # The owner of a cell is the rank at the cell's slab coordinates.
        cuts = [
            sorted({decomp.box_of_rank(r).lo[a] for r in range(decomp.n_ranks)})
            for a in range(3)
        ]
        for cell in np.ndindex(*shape):
            slab = tuple(
                int(np.searchsorted(cuts[a], cell[a], side="right")) - 1
                for a in range(3)
            )
            assert owner[cell] == decomp.rank_of_coords(slab)

    def test_rank_coords_roundtrip(self):
        decomp = GridDecomposition((12, 12, 12), (2, 3, 2))
        for r in range(decomp.n_ranks):
            assert decomp.rank_of_coords(decomp.rank_coords(r)) == r

    def test_invalid_grid_rejected(self):
        with pytest.raises(ValueError):
            GridDecomposition((4, 4, 4), (8, 1, 1))


class TestNeighbors:
    def test_2x2x2_all_others(self):
        decomp = GridDecomposition((12, 12, 12), (2, 2, 2))
        assert decomp.neighbors_of(0) == [1, 2, 3, 4, 5, 6, 7]

    def test_single_rank_no_neighbors(self):
        decomp = GridDecomposition((8, 8, 8), (1, 1, 1))
        assert decomp.neighbors_of(0) == []

    def test_neighbors_symmetric(self):
        decomp = GridDecomposition((18, 12, 12), (3, 2, 2))
        for r in range(decomp.n_ranks):
            for nb in decomp.neighbors_of(r):
                assert r in decomp.neighbors_of(nb)
