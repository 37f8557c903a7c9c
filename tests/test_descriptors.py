"""Off-lattice descriptors: Eq. 5 vs the tabulated Eq. 6 path, force chain rule."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import CU, FE
from repro.lattice import LatticeState
from repro.nnp.dataset import Structure
from repro.nnp.descriptors import build_pair_list, structure_features
from repro.potentials import FeatureTable, counts_from_types


class TestPairList:
    def test_pairs_symmetric(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 8.0, (20, 3))
        pairs = build_pair_list(pos, np.array([8.0, 8.0, 8.0]), rcut=3.0)
        # every ordered pair has its reverse
        fwd = set(zip(pairs.i.tolist(), pairs.j.tolist()))
        assert all((j, i) in fwd for i, j in fwd)

    def test_distances_below_cutoff(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 10.0, (15, 3))
        pairs = build_pair_list(pos, np.array([10.0] * 3), rcut=4.0)
        assert np.all(pairs.r < 4.0)
        assert np.all(pairs.r > 0.0)

    def test_unit_vectors_normalised(self):
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 9.0, (12, 3))
        pairs = build_pair_list(pos, np.array([9.0] * 3), rcut=4.0)
        norms = np.linalg.norm(pairs.unit, axis=1)
        assert np.allclose(norms, 1.0)

    def test_small_cell_includes_multiple_images(self):
        """A cell smaller than 2*rcut must count periodic images."""
        pos = np.zeros((1, 3))
        pairs = build_pair_list(pos, np.array([3.0, 3.0, 3.0]), rcut=4.0)
        # The lone atom sees its own images.
        assert pairs.n_pairs > 0
        assert np.all(pairs.i == 0) and np.all(pairs.j == 0)


def _counts_reference(neighbor_types, neighbor_shell, n_shells, n_elements):
    """Straightforward loop reference for counts_from_types."""
    neighbor_types = np.asarray(neighbor_types)
    lead = neighbor_types.shape[:-1]
    flat = neighbor_types.reshape(-1, neighbor_types.shape[-1])
    out = np.zeros((flat.shape[0], n_shells, n_elements), dtype=np.float32)
    for row in range(flat.shape[0]):
        for slot, t in enumerate(flat[row]):
            if 0 <= int(t) < n_elements:
                out[row, int(neighbor_shell[slot]), int(t)] += 1.0
    return out.reshape(*lead, n_shells, n_elements)


class TestCountsFromTypes:
    @given(
        n_rows=st.integers(min_value=1, max_value=6),
        n_local=st.integers(min_value=1, max_value=12),
        n_shells=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_counts_from_types_matches_reference(
        self, n_rows, n_local, n_shells, seed
    ):
        rng = np.random.default_rng(seed)
        types = rng.integers(0, 4, size=(n_rows, n_local)).astype(np.int16)
        shells = rng.integers(0, n_shells, size=n_local).astype(np.int16)
        got = counts_from_types(types, shells, n_shells, n_elements=2)
        ref = _counts_reference(types, shells, n_shells, 2)
        np.testing.assert_array_equal(got, ref)


class TestEq5VsEq6:
    def test_continuous_matches_tabulated_on_perfect_lattice(self, tet_small):
        """Eq. 5 on ideal positions == Eq. 6 from shell counts (exactly)."""
        lattice = LatticeState((6, 6, 6))
        rng = np.random.default_rng(3)
        lattice.occupancy[:] = np.where(rng.random(lattice.n_sites) < 0.15, CU, FE)
        table = FeatureTable(tet_small.shell_distances, dtype=np.float64)

        # Tabulated path.
        ids = np.arange(lattice.n_sites)
        half = lattice.half_coords(ids)
        nb = lattice.ids_from_half(half[:, None, :] + tet_small.cet_offsets[None, :, :])
        counts = counts_from_types(
            lattice.occupancy[nb], tet_small.cet_shell, tet_small.n_shells
        )
        feats_tab = table.features_from_counts(counts.astype(np.float64))

        # Continuous path.
        pos = lattice.positions(ids).astype(np.float64)
        cell = np.array([6 * lattice.a] * 3)
        pairs = build_pair_list(pos, cell, rcut=tet_small.rcut + 1e-9)
        feats_cont = structure_features(lattice.occupancy.astype(int), pairs, table)

        assert np.allclose(feats_tab, feats_cont, atol=1e-10)


class TestForces:
    def test_nnp_forces_match_finite_differences(self, nnp_small):
        rng = np.random.default_rng(4)
        a = 2.87
        pos = []
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    pos.append([i * a, j * a, k * a])
                    pos.append([(i + 0.5) * a, (j + 0.5) * a, (k + 0.5) * a])
        pos = np.asarray(pos) + rng.normal(0, 0.03, (54, 3))
        spec = rng.choice([FE, CU], size=54, p=[0.8, 0.2])
        s = Structure(
            positions=pos, species=spec, cell=np.array([3 * a] * 3),
            energy=0.0, forces=np.zeros((54, 3)),
        )
        energy, forces = nnp_small.structure_energy_and_forces(s)
        assert np.isfinite(energy)
        h = 2e-4  # float32 network -> coarser probe
        for idx in (0, 17):
            for c in range(3):
                sp = Structure(pos.copy(), spec, s.cell, 0.0, s.forces)
                sp.positions[idx, c] += h
                sm = Structure(pos.copy(), spec, s.cell, 0.0, s.forces)
                sm.positions[idx, c] -= h
                fd = -(nnp_small.structure_energy(sp) - nnp_small.structure_energy(sm)) / (2 * h)
                assert fd == pytest.approx(forces[idx, c], rel=0.08, abs=2e-2)

    def test_forces_sum_to_zero(self, nnp_small):
        """Translational invariance: total force vanishes."""
        rng = np.random.default_rng(5)
        a = 2.87
        base, _ = [], None
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    base.append([i * a, j * a, k * a])
                    base.append([(i + 0.5) * a, (j + 0.5) * a, (k + 0.5) * a])
        pos = np.asarray(base) + rng.normal(0, 0.05, (16, 3))
        spec = rng.choice([FE, CU], size=16)
        s = Structure(pos, spec, np.array([2 * a] * 3), 0.0, np.zeros((16, 3)))
        _, forces = nnp_small.structure_energy_and_forces(s)
        assert np.allclose(forces.sum(axis=0), 0.0, atol=1e-6)
