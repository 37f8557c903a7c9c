"""Property tests for the scaling model, lattice metric, and ternary EAM."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import CU, FE
from repro.lattice import LatticeState
from repro.parallel import (
    ScalingParameters,
    parallel_efficiency,
    strong_scaling,
    weak_scaling,
)
from repro.potentials import EAMParameters, EAMPotential, counts_from_types

PARAMS = ScalingParameters(1.8e-4, bytes_per_boundary_cell=0.05)


class TestScalingModelProperties:
    @given(scale=st.floats(min_value=1.1, max_value=20.0))
    @settings(max_examples=25, deadline=None)
    def test_strong_efficiency_decreases_with_cg_count(self, scale):
        counts = [12000, int(12000 * scale) + 1]
        eff = parallel_efficiency(strong_scaling(PARAMS, 1.92e12, counts))
        assert eff[1] <= eff[0] + 1e-12

    @given(atoms=st.floats(min_value=1e6, max_value=1e9))
    @settings(max_examples=25, deadline=None)
    def test_weak_growth_is_compute_and_sync(self, atoms):
        pts = weak_scaling(PARAMS, atoms, [12000, 422400])
        # the busiest of more CGs runs more events; the halo is unchanged
        assert pts[1].cycle_compute >= pts[0].cycle_compute
        assert pts[1].cycle_sync > pts[0].cycle_sync
        assert pts[1].cycle_comm == pts[0].cycle_comm

    def test_compute_scales_with_event_cost(self):
        cheap = strong_scaling(PARAMS, 1.92e12, [12000])[0]
        costly = strong_scaling(
            ScalingParameters(3.6e-4, bytes_per_boundary_cell=0.05), 1.92e12, [12000]
        )[0]
        assert costly.cycle_compute == pytest.approx(2 * cheap.cycle_compute)


class TestMinimumImageProperties:
    @given(
        shape=st.tuples(*(st.integers(min_value=3, max_value=8),) * 3),
        a_id=st.integers(min_value=0, max_value=2 * 8 * 8 * 8 - 1),
        b_id=st.integers(min_value=0, max_value=2 * 8 * 8 * 8 - 1),
    )
    @settings(max_examples=50, deadline=None)
    def test_antisymmetric_and_bounded(self, shape, a_id, b_id):
        lattice = LatticeState(shape)
        a = a_id % lattice.n_sites
        b = b_id % lattice.n_sites
        d_ab = lattice.minimum_image_displacement(a, b)
        d_ba = lattice.minimum_image_displacement(b, a)
        assert np.allclose(d_ab, -d_ba)
        # every component is at most half the box span
        span = np.array(shape) * lattice.a
        assert np.all(np.abs(d_ab) <= span / 2 + 1e-9)

    @given(
        shape=st.tuples(*(st.integers(min_value=3, max_value=6),) * 3),
        site=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_self_distance_zero(self, shape, site):
        lattice = LatticeState(shape)
        s = site % lattice.n_sites
        assert np.allclose(lattice.minimum_image_displacement(s, s), 0.0)


class TestTernaryEAMConsistency:
    def test_oracle_matches_counts_path_for_three_species(self):
        """The ternary lattice fast path equals the continuous oracle."""
        from repro.core.tet import TripleEncoding

        tet = TripleEncoding(rcut=2.87)
        potential = EAMPotential(
            tet.shell_distances, EAMParameters.fe_cu_ni()
        )
        lattice = LatticeState((6, 6, 6), vacancy_code=3)
        rng = np.random.default_rng(7)
        lattice.occupancy[:] = rng.choice(
            [FE, CU, 2], size=lattice.n_sites, p=[0.8, 0.1, 0.1]
        )
        ids = np.arange(lattice.n_sites)
        half = lattice.half_coords(ids)
        nb = lattice.ids_from_half(half[:, None, :] + tet.cet_offsets[None, :, :])
        counts = counts_from_types(
            lattice.occupancy[nb], tet.cet_shell, tet.n_shells, n_elements=3
        )
        e_counts = potential.region_energy(lattice.occupancy[ids], counts)

        # For an exact comparison the oracle must see only the same shells:
        # build a short-cutoff variant of the ternary potential.
        from dataclasses import replace

        short = EAMPotential(
            tet.shell_distances,
            replace(EAMParameters.fe_cu_ni(), rcut=2.87 + 1e-9),
        )
        ids_all = np.arange(lattice.n_sites)
        halfc = lattice.half_coords(ids_all)
        nb2 = lattice.ids_from_half(halfc[:, None, :] + tet.cet_offsets[None, :, :])
        counts2 = counts_from_types(
            lattice.occupancy[nb2], tet.cet_shell, tet.n_shells, n_elements=3
        )
        e_counts_short = short.region_energy(lattice.occupancy[ids_all], counts2)
        pos = lattice.positions(ids_all).astype(float)
        e_oracle, _ = short.energy_and_forces(
            pos, lattice.occupancy.astype(int), np.array([6 * lattice.a] * 3)
        )
        assert e_oracle == pytest.approx(e_counts_short, abs=1e-9)
        assert np.isfinite(e_counts)
