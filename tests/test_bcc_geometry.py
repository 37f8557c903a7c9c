"""BCC geometry: shell structure and the paper's Sec. 4.1.1 site counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import LATTICE_CONSTANT, RCUT_SHORT, RCUT_STANDARD
from repro.lattice import BCCGeometry, first_nn_offsets


class TestFirstNN:
    def test_eight_neighbors(self):
        offs = first_nn_offsets()
        assert offs.shape == (8, 3)
        assert np.all(np.abs(offs) == 1)

    def test_all_distinct(self):
        offs = first_nn_offsets()
        assert len({tuple(o) for o in offs}) == 8

    def test_distance_is_sqrt3_over_2_a(self):
        g = BCCGeometry()
        d = g.offset_distance(first_nn_offsets())
        expected = LATTICE_CONSTANT * np.sqrt(3.0) / 2.0
        assert np.allclose(d, expected)


class TestShells:
    def test_paper_n_local_standard_cutoff(self):
        g = BCCGeometry()
        shells = g.shells_within(RCUT_STANDARD)
        assert shells.n_sites == 112  # paper Sec. 4.1.1
        assert shells.n_shells == 8

    def test_paper_n_local_short_cutoff(self):
        g = BCCGeometry()
        assert g.shells_within(RCUT_SHORT).n_sites == 64

    def test_first_two_shell_multiplicities(self):
        g = BCCGeometry()
        shells = g.shells_within(LATTICE_CONSTANT)
        assert list(shells.shell_counts[:2]) == [8, 6]

    def test_shell_distances_sorted(self):
        g = BCCGeometry()
        shells = g.shells_within(RCUT_STANDARD)
        assert np.all(np.diff(shells.shell_distances) > 0)

    def test_distances_match_offsets(self):
        g = BCCGeometry()
        shells = g.shells_within(RCUT_STANDARD)
        assert np.allclose(g.offset_distance(shells.offsets), shells.distances)

    def test_offsets_have_valid_parity(self):
        g = BCCGeometry()
        shells = g.shells_within(RCUT_STANDARD)
        parity = shells.offsets & 1
        assert np.all((parity[:, 0] == parity[:, 1]) & (parity[:, 1] == parity[:, 2]))

    def test_offsets_unique(self):
        g = BCCGeometry()
        shells = g.shells_within(RCUT_STANDARD)
        assert len({tuple(o) for o in shells.offsets}) == shells.n_sites

    def test_inversion_symmetry(self):
        """For every neighbour offset, its negation is also a neighbour."""
        g = BCCGeometry()
        shells = g.shells_within(RCUT_STANDARD)
        keys = {tuple(o) for o in shells.offsets}
        assert all(tuple(-o) in keys for o in shells.offsets)

    def test_shell_index_matches_distance_grouping(self):
        g = BCCGeometry()
        shells = g.shells_within(RCUT_STANDARD)
        for s in range(shells.n_shells):
            d = shells.distances[shells.shell_index == s]
            assert np.allclose(d, shells.shell_distances[s])

    @given(rcut=st.floats(min_value=2.49, max_value=9.0))
    @settings(max_examples=25, deadline=None)
    def test_counts_monotone_in_cutoff(self, rcut):
        g = BCCGeometry()
        inner = g.shells_within(rcut)
        outer = g.shells_within(rcut + 1.0)
        assert outer.n_sites >= inner.n_sites

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            BCCGeometry(a=0.0)
        with pytest.raises(ValueError):
            BCCGeometry().shells_within(-1.0)

    def test_scaling_with_lattice_constant(self):
        """Shell structure is scale-invariant in r/a."""
        small = BCCGeometry(a=1.0).shells_within(1.0)
        big = BCCGeometry(a=2.0).shells_within(2.0)
        assert small.n_sites == big.n_sites
        assert np.allclose(2.0 * small.shell_distances, big.shell_distances)
