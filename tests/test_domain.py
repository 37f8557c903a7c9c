"""Domain windows: global/window coordinate mapping and fills."""

import numpy as np
import pytest

from repro.constants import CU, FE, VACANCY
from repro.lattice import DomainBox, LatticeState, LocalWindow


class TestDomainBox:
    def test_shape_and_counts(self):
        box = DomainBox((1, 2, 3), (4, 6, 9))
        assert box.shape == (3, 4, 6)
        assert box.n_cells == 72
        assert box.n_sites == 144

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            DomainBox((2, 2, 2), (2, 4, 4))


class TestLocalWindow:
    @pytest.fixture()
    def setup(self):
        global_lat = LatticeState((10, 10, 10))
        rng = np.random.default_rng(4)
        global_lat.occupancy[:] = np.where(
            rng.random(global_lat.n_sites) < 0.2, CU, FE
        )
        window = LocalWindow(DomainBox((2, 2, 2), (7, 7, 7)), (10, 10, 10), 2)
        window.fill_from_global(global_lat.occupancy.reshape(2, 10, 10, 10))
        return global_lat, window

    def test_fill_matches_global(self, setup):
        global_lat, window = setup
        occ4d = global_lat.occupancy.reshape(2, 10, 10, 10)
        # every padded cell holds the wrapped global species
        px, py, pz = window.padded_shape
        for probe in [(0, 0, 0, 0), (1, 3, 4, 5), (0, px - 1, py - 1, pz - 1)]:
            s, i, j, k = probe
            gc = window.global_cell_of_padded(np.array([i, j, k]))
            assert window.occupancy[s, i, j, k] == occ4d[s, gc[0], gc[1], gc[2]]

    def test_local_block_matches_box(self, setup):
        global_lat, window = setup
        occ4d = global_lat.occupancy.reshape(2, 10, 10, 10)
        block = window.local_block()
        assert np.array_equal(block, occ4d[:, 2:7, 2:7, 2:7])

    def test_half_coord_roundtrip(self, setup):
        _, window = setup
        s = np.array([0, 1, 1])
        cell = np.array([[1, 2, 3], [4, 5, 6], [0, 0, 0]])
        half = window.half_coords(s, cell)
        s2, cell2 = window.site_from_half(half)
        assert np.array_equal(s, s2)
        assert np.array_equal(cell, cell2)

    def test_species_read_write_at_half(self, setup):
        _, window = setup
        half = window.half_coords(np.array([1]), np.array([[3, 3, 3]]))
        window.set_species_at_half(half, VACANCY)
        assert window.species_at_half(half)[0] == VACANCY

    def test_is_local_half(self, setup):
        _, window = setup
        ghost_half = window.half_coords(np.array([0]), np.array([[0, 3, 3]]))
        local_half = window.half_coords(np.array([0]), np.array([[3, 3, 3]]))
        assert not window.is_local_half(ghost_half)[0]
        assert window.is_local_half(local_half)[0]

    def test_local_vacancy_scan(self, setup):
        _, window = setup
        half = window.half_coords(np.array([0]), np.array([[4, 4, 4]]))
        window.set_species_at_half(half, VACANCY)
        found = window.local_vacancy_half_coords()
        assert any(np.array_equal(h, half[0]) for h in found)
        # a ghost vacancy must NOT be reported
        ghost_half = window.half_coords(np.array([0]), np.array([[0, 0, 0]]))
        window.set_species_at_half(ghost_half, VACANCY)
        found = window.local_vacancy_half_coords()
        assert not any(np.array_equal(h, ghost_half[0]) for h in found)
