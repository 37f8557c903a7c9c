"""LatticeState: indexing round-trips, periodic wrap, species bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import CU, FE, VACANCY
from repro.lattice import LatticeState, first_nn_offsets

dims = st.integers(min_value=2, max_value=7)


class TestIndexing:
    @given(nx=dims, ny=dims, nz=dims)
    @settings(max_examples=20, deadline=None)
    def test_site_id_coords_roundtrip(self, nx, ny, nz):
        st_ = LatticeState((nx, ny, nz))
        ids = np.arange(st_.n_sites)
        s, i, j, k = st_.site_coords(ids)
        back = ((s * nx + i) * ny + j) * nz + k
        assert np.array_equal(back, ids)

    @given(nx=dims, ny=dims, nz=dims)
    @settings(max_examples=20, deadline=None)
    def test_half_coords_roundtrip(self, nx, ny, nz):
        st_ = LatticeState((nx, ny, nz))
        ids = np.arange(st_.n_sites)
        assert np.array_equal(st_.ids_from_half(st_.half_coords(ids)), ids)

    def test_wraps_periodically(self):
        st_ = LatticeState((4, 4, 4))
        # A full box translation maps every site to itself.
        ids = np.arange(st_.n_sites)
        half = st_.half_coords(ids)
        shifted = half + np.array([8, 0, 0])
        assert np.array_equal(st_.ids_from_half(shifted), ids)

    def test_mixed_parity_rejected(self):
        st_ = LatticeState((4, 4, 4))
        with pytest.raises(ValueError):
            st_.ids_from_half(np.array([[1, 0, 0]]))

    def test_neighbor_ids_are_1nn(self):
        st_ = LatticeState((4, 4, 4))
        center = st_.site_id(1, 1, 1, 1)
        nbs = st_.neighbor_ids(center, first_nn_offsets())
        pos_c = st_.positions(np.array([center]))[0]
        for nb in nbs:
            d = st_.minimum_image_displacement(center, int(nb))
            assert np.isclose(np.linalg.norm(d), st_.a * np.sqrt(3) / 2)
        assert len(set(int(n) for n in nbs)) == 8
        del pos_c

    def test_positions_shape_and_scale(self):
        st_ = LatticeState((3, 3, 3))
        pos = st_.positions(np.arange(st_.n_sites))
        assert pos.shape == (54, 3)
        assert pos.min() == 0.0
        assert pos.max() <= 3 * st_.a

    def test_minimum_image_shorter_than_half_box(self):
        st_ = LatticeState((6, 6, 6))
        d = st_.minimum_image_displacement(st_.site_id(0, 0, 0, 0), st_.site_id(0, 5, 5, 5))
        # (0,5,5,5) is one cell away through the periodic boundary.
        assert np.allclose(np.abs(d), st_.a)


class TestSpecies:
    def test_initial_fill(self):
        st_ = LatticeState((3, 3, 3))
        assert np.all(st_.occupancy == FE)

    def test_swap(self):
        st_ = LatticeState((3, 3, 3))
        st_.occupancy[0] = CU
        st_.occupancy[5] = VACANCY
        st_.swap(0, 5)
        assert st_.occupancy[0] == VACANCY and st_.occupancy[5] == CU

    def test_species_counts_sum(self, alloy_lattice):
        assert alloy_lattice.species_counts().sum() == alloy_lattice.n_sites

    @given(
        cu=st.floats(min_value=0.0, max_value=0.3),
        vac=st.floats(min_value=0.0, max_value=0.01),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=25, deadline=None)
    def test_randomize_alloy_concentrations(self, cu, vac, seed):
        st_ = LatticeState((6, 6, 6))
        rng = np.random.default_rng(seed)
        st_.randomize_alloy(rng, cu, vac)
        counts = st_.species_counts()
        assert counts.sum() == st_.n_sites
        assert counts[CU] == round(cu * st_.n_sites)
        assert counts[VACANCY] == max(round(vac * st_.n_sites), 1)

    def test_randomize_rejects_overfull(self):
        st_ = LatticeState((2, 2, 2))
        with pytest.raises(ValueError):
            st_.randomize_alloy(np.random.default_rng(0), 0.9, 0.5)

    def test_vacancy_ids(self):
        st_ = LatticeState((3, 3, 3))
        st_.occupancy[7] = VACANCY
        st_.occupancy[11] = VACANCY
        assert list(st_.vacancy_ids) == [7, 11]

    def test_copy_is_independent(self):
        st_ = LatticeState((3, 3, 3))
        clone = st_.copy()
        clone.occupancy[0] = CU
        assert st_.occupancy[0] == FE

    def test_concentration(self):
        st_ = LatticeState((3, 3, 3))
        st_.occupancy[:27] = CU
        assert st_.concentration(CU) == pytest.approx(0.5)

    def test_volume(self):
        st_ = LatticeState((2, 3, 4))
        assert st_.volume == pytest.approx(2 * 3 * 4 * st_.a**3)

    def test_invalid_shape(self):
        with pytest.raises(ValueError):
            LatticeState((0, 3, 3))

    @pytest.mark.parametrize("vacancy_code", [VACANCY, 3])
    def test_repr_lists_every_species(self, vacancy_code):
        st_ = LatticeState((2, 2, 2), vacancy_code=vacancy_code)
        st_.occupancy[:3] = CU
        st_.occupancy[3] = vacancy_code
        counts = [12, 3] + [0] * (vacancy_code - 2) + [1]
        assert f"species_counts={counts}" in repr(st_)
