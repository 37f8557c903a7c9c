"""Triple-encoding tabulation: the paper's Sec. 4.1.1 sizes and invariants."""

import hashlib

import numpy as np
import pytest

from repro.baseline.openkmc import OpenKMCEngine
from repro.campaign import ReplicaCampaign, ReplicaSpec, alloy_engine_factory
from repro.constants import CU, KB_EV, RCUT_SHORT, RCUT_STANDARD
from repro.core import TensorKMCEngine
from repro.core.rates import DEFAULT_EA0
from repro.core.tet import TripleEncoding
from repro.core.vacancy_system import VacancySystemEvaluator
from repro.lattice import LatticeState
from repro.parallel import SublatticeKMC
from repro.potentials import EAMPotential


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


def _sha256(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


class TestPinnedTables:
    """The TET and the evaluator's swap tables, pinned byte for byte.

    The literals were taken from the per-site construction these tables
    replaced; any change of order, dtype or contents fails here.
    """

    @pytest.mark.parametrize(
        "rcut, n_region, n_all, n_local, offsets_sha, net_sha",
        [
            (2.87, 59, 169, 14,
             "7910f8c02ce7a7a8dc8ef4eeb599d9c7c4879a548efe3b099efc468189c41961",
             "e3a1fc2f559e4b9639018f8fcc5a733a90089afe2fa4085b3f4520530041dbf1"),
            (4.8, 137, 555, 50,
             "7fa7fccadbd258eb3a307dc6400882dbf2307cbcf22738634c1d9e65eed1090b",
             "7465c379e4a18daa00d8eedaf25a0613c2fa20f7175cabf954d71166f309408d"),
            (5.8, 169, 665, 64,
             "898d007265ebbde062cb111f48592cc999d323074674859bddf6cd3d11f9208f",
             "6863455270c7ef92371a1f8e87d3f305294a70cf73d5067f1b8c59715a153752"),
            (6.5, 253, 1181, 112,
             "207ad448cf2e996a8013922a100bfb07d9ee7a437b2379a03e48154385f0097b",
             "ab387a22009147a548f5e578f7f93a334db38795b0dba61d3c5d09fffff9b0c4"),
        ],
    )
    def test_tet_tables(self, rcut, n_region, n_all, n_local, offsets_sha, net_sha):
        tet = TripleEncoding(rcut)
        assert tet.n_region == n_region
        assert tet.all_offsets.dtype == np.int64
        assert tet.all_offsets.shape == (n_all, 3)
        assert tet.net_ids.dtype == np.int32
        assert tet.net_ids.shape == (n_region, n_local)
        assert _sha256(tet.all_offsets) == offsets_sha
        assert _sha256(tet.net_ids) == net_sha

    @pytest.mark.parametrize(
        "rcut, table_sha, code_sha, dirty_sha",
        [
            (2.87,
             "6744612e0ea4d6fe657063009235c5dd8da43242636be8307b66f8ca975c15c1",
             "5102f8946dea16168593440f02c5bcbf0cc621ae04583ae3d60981c5b6bbbcd8",
             "2b3101951845fca84afa9b68d5931ae437f31512baa2c0f5957b79377ff5b28d"),
            (4.8,
             "afbff4db43bf462c8cb8138c54b4f90aed0eeb9e7968e61179e95f095b1ae9df",
             "a8e03743f36cab2f8cbe8d555cdae7ba8aa4926a0592e3adac27c3df95e005a9",
             "fc30b345d409b07535496c59a250383061695b9c845397423963b6303ea209c0"),
            (6.5,
             "6cbb4bcfbb1e495e2f6550d82bee88ec02a0273fa027bce3e71987fc999f0460",
             "07b59fec9d6f6a7f2e61eee38b4dc555c167def95846efd7ce4b3d5e9cbda918",
             "89f6d81a09977c8e1f635f29f0b80688015eec45a08fe8258a37cec32ffa7bf7"),
        ],
    )
    def test_evaluator_tables(self, rcut, table_sha, code_sha, dirty_sha):
        tet = TripleEncoding(rcut)
        ev = VacancySystemEvaluator(tet, EAMPotential(tet.shell_distances))
        n_channels = tet.n_shells * 2  # Fe, Cu
        assert ev._patch_table.dtype == np.float32
        assert ev._patch_table.shape == ((tet.n_shells + 1) ** 2 * 9 + 9, n_channels)
        assert ev._patch_code.dtype == np.int64
        assert ev._patch_code.shape == (tet.n_region, 9)
        assert ev.dirty_rows_of_position.dtype == np.bool_
        assert ev.dirty_rows_of_position.shape == (tet.n_all, tet.n_region)
        assert _sha256(ev._patch_table) == table_sha
        assert _sha256(ev._patch_code) == code_sha
        assert _sha256(ev.dirty_rows_of_position) == dirty_sha


class TestMinimumBox:
    @pytest.mark.parametrize(
        "rcut, cells", [(2.87, 3), (4.8, 4), (5.8, 5), (RCUT_STANDARD, 5)]
    )
    def test_min_box_cells(self, rcut, cells):
        """The smallest box on which a hop's ΔE is a difference of total
        energies (a sweep of the check below over boxes 2-6 finds the same
        minimum at each cutoff)."""
        assert TripleEncoding(rcut).min_box_cells == cells

    def test_check_box(self, tet_small):
        tet_small.check_box((3, 3, 3))
        tet_small.check_box((3, 8, 40))
        with pytest.raises(ValueError, match=r"box \(8, 2, 8\).*rcut=2.87.*3 cells"):
            tet_small.check_box((8, 2, 8))

    @pytest.mark.parametrize("rcut", [2.87, RCUT_STANDARD])
    def test_rates_obey_total_energy_at_the_minimum(self, rcut):
        """On the smallest admitted box, the ΔE each hop's rate encodes is
        the difference of the lattice's total energies before and after
        the hop (one vacancy with a 1NN Cu, EAM, every direction)."""
        tet = TripleEncoding(rcut)
        lattice = LatticeState((tet.min_box_cells,) * 3)
        centre = lattice.site_at_half(0, 0, 0)
        targets = lattice.neighbor_ids(centre, tet.nn_offsets)
        lattice.place_species([centre], lattice.vacancy_code)
        lattice.place_species([int(targets[0])], CU)
        engine = OpenKMCEngine(
            lattice, EAMPotential(tet.shell_distances), tet, temperature=900.0
        )
        sites = np.arange(lattice.n_sites)

        def total_energy():
            engine.refresh_atom_arrays(sites)
            return engine.atom_energy_from_arrays(sites).sum()

        kt = KB_EV * engine.rate_model.temperature
        e0 = total_energy()
        _, rates = engine.build_system(0)
        for k, target in enumerate(targets.tolist()):
            ea = -kt * np.log(rates[k] / engine.rate_model.attempt_frequency)
            delta = 2.0 * (ea - DEFAULT_EA0[lattice.occupancy[target]])
            lattice.swap(centre, target)
            e1 = total_energy()
            lattice.swap(centre, target)
            assert delta == pytest.approx(e1 - e0, abs=1e-9)

    @pytest.mark.parametrize("rcut, cells", [(2.87, 2), (RCUT_STANDARD, 4)])
    def test_every_driver_refuses_a_smaller_box(self, rcut, cells):
        tet = TripleEncoding(rcut)
        eam = EAMPotential(tet.shell_distances)
        lattice = LatticeState((cells, cells, 2 * tet.min_box_cells))
        lattice.place_species([0, 1], lattice.vacancy_code)
        for driver in (TensorKMCEngine, OpenKMCEngine):
            with pytest.raises(ValueError, match="too small"):
                driver(lattice.copy(), eam, tet)
        with pytest.raises(ValueError, match="too small"):
            SublatticeKMC(lattice.copy(), eam, tet, n_ranks=1)
        with pytest.raises(ValueError, match="too small"):
            ReplicaCampaign(
                [ReplicaSpec(name="r0", seed=0)],
                alloy_engine_factory(cells, eam, tet, cu_fraction=0.05),
            ).run()
