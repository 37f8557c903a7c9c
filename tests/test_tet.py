"""Triple-encoding tabulation: the paper's Sec. 4.1.1 sizes and invariants."""

import numpy as np
import pytest

from repro.constants import RCUT_SHORT, RCUT_STANDARD
from repro.core.tet import TripleEncoding


class TestPaperSizes:
    def test_standard_cutoff_sizes(self, tet_standard):
        d = tet_standard.describe()
        assert d["n_local"] == 112  # paper Sec. 4.1.1
        assert d["n_region"] == 253  # paper Sec. 4.1.1

    def test_short_cutoff_n_local(self):
        assert TripleEncoding(RCUT_SHORT).n_local == 64

    def test_n_all_partition(self, tet_standard):
        assert tet_standard.n_all == tet_standard.n_region + tet_standard.n_out


class TestOrdering:
    def test_center_first(self, tet_small):
        assert np.array_equal(tet_small.all_offsets[0], [0, 0, 0])

    def test_1nn_block(self, tet_small):
        block = tet_small.all_offsets[1:9]
        assert np.array_equal(block, tet_small.nn_offsets)
        assert np.all(np.abs(block) == 1)

    def test_direction_vet_index(self, tet_small):
        assert [tet_small.direction_vet_index(k) for k in range(8)] == list(range(1, 9))
        with pytest.raises(ValueError):
            tet_small.direction_vet_index(8)

    def test_all_offsets_unique(self, tet_standard):
        keys = {tuple(o) for o in tet_standard.all_offsets}
        assert len(keys) == tet_standard.n_all


class TestNET:
    def test_net_shape(self, tet_standard):
        assert tet_standard.net_ids.shape == (
            tet_standard.n_region,
            tet_standard.n_local,
        )

    def test_net_is_consistent_with_cet(self, tet_small):
        """all_offsets[net_ids[i, j]] == all_offsets[i] + cet_offsets[j]."""
        for i in range(tet_small.n_region):
            expected = tet_small.all_offsets[i] + tet_small.cet_offsets
            actual = tet_small.all_offsets[tet_small.net_ids[i]]
            assert np.array_equal(actual, expected)

    def test_center_neighbors_are_cet(self, tet_small):
        """NET row 0 maps exactly onto the CET offsets."""
        actual = tet_small.all_offsets[tet_small.net_ids[0]]
        assert np.array_equal(actual, tet_small.cet_offsets)

    def test_region_closed_under_1nn_neighborhoods(self, tet_small):
        """Every neighbour of the centre or a 1NN site is a region site."""
        region = {tuple(o) for o in tet_small.all_offsets[: tet_small.n_region]}
        for base in np.vstack([[0, 0, 0], tet_small.nn_offsets]):
            for off in tet_small.cet_offsets:
                assert tuple(base + off) in region

    def test_shell_of_cet_entries(self, tet_standard):
        d = tet_standard.geometry.offset_distance(tet_standard.cet_offsets)
        assert np.allclose(
            tet_standard.shell_distances[tet_standard.cet_shell], d
        )


class TestInvalidation:
    def test_invalidation_radius_covers_all_sites(self, tet_standard):
        d = tet_standard.geometry.offset_distance(tet_standard.all_offsets)
        assert tet_standard.invalidation_radius >= d.max() - 1e-9

    def test_invalidation_radius_bounded(self, tet_standard):
        # at most 2*rcut + one 1NN step (region reach + neighbour reach)
        bound = 2 * tet_standard.rcut + tet_standard.geometry.a * np.sqrt(3) / 2
        assert tet_standard.invalidation_radius <= bound + 1e-9

    @pytest.mark.parametrize(
        "rcut, n_ball", [(2.87, 169), (4.8, 561), (RCUT_STANDARD, 1211)]
    )
    def test_footprint_within_invalidation_ball(self, rcut, n_ball):
        """The stencil invalidates the VET footprint; the engines used to
        invalidate every site within ``invalidation_radius``.  The footprint
        lies inside that ball, so the stencil never stales an entry the ball
        kept; the ball's extra sites hold no VET position, so a change there
        left the rates bit-identical and no trajectory moves."""
        tet = TripleEncoding(rcut)
        r = int(np.ceil(2 * tet.invalidation_radius / tet.geometry.a))
        grid = np.stack(
            np.meshgrid(*(np.arange(-r, r + 1),) * 3, indexing="ij"), -1
        ).reshape(-1, 3)
        bcc = grid[(grid % 2 == grid[:, :1] % 2).all(axis=1)]
        d = tet.geometry.offset_distance(bcc)
        ball = {tuple(o) for o in bcc[d <= tet.invalidation_radius + 1e-9]}
        footprint = {tuple(o) for o in tet.all_offsets.tolist()}
        assert footprint <= ball
        assert (len(footprint), len(ball)) == (tet.n_all, n_ball)


class TestErrors:
    def test_rcut_below_1nn_rejected(self):
        with pytest.raises(ValueError):
            TripleEncoding(rcut=1.0)

    def test_standard_constant(self):
        assert TripleEncoding(RCUT_STANDARD).rcut == RCUT_STANDARD
