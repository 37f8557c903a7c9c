"""Scaling model: cost structure and the Fig. 12/13 efficiency shapes."""

import numpy as np
import pytest

from repro.constants import ATTEMPT_FREQUENCY, EA0_FE, KB_EV
from repro.parallel import (
    CORES_PER_CG,
    ScalingParameters,
    parallel_efficiency,
    strong_scaling,
    weak_scaling,
)


@pytest.fixture(scope="module")
def paper_params():
    kT = KB_EV * 573.0
    rate_per_vac = 8 * ATTEMPT_FREQUENCY * np.exp(-EA0_FE / kT)
    return ScalingParameters(
        compute_seconds_per_event=2.0e-4,
        events_per_atom_second=rate_per_vac * 8e-6,
        bytes_per_boundary_cell=0.05,
    )


class TestStructure:
    def test_cores_per_cg(self):
        assert CORES_PER_CG == 65  # 1 MPE + 64 CPEs

    def test_strong_divides_atoms(self, paper_params):
        pts = strong_scaling(paper_params, 1.92e12, [12000, 24000])
        assert pts[0].atoms_per_cg == pytest.approx(2 * pts[1].atoms_per_cg)
        assert pts[0].atoms_total == pts[1].atoms_total

    def test_weak_fixes_atoms_per_cg(self, paper_params):
        pts = weak_scaling(paper_params, 128e6, [12000, 422400])
        assert pts[0].atoms_per_cg == pts[1].atoms_per_cg
        assert pts[1].atoms_total == pytest.approx(54.067e12, rel=0.01)

    def test_compute_dominates_at_baseline(self, paper_params):
        pt = strong_scaling(paper_params, 1.92e12, [12000])[0]
        assert pt.cycle_compute > 10 * (pt.cycle_comm + pt.cycle_sync)


class TestCalibrationTraffic:
    """The model is calibrated from CommStats, so CommStats must see *all*
    protocol traffic — including the per-cycle time-sync collective."""

    def test_collective_traffic_reaches_comm_stats(self, tet_small, eam_small):
        from repro.lattice import LatticeState
        from repro.parallel import SublatticeKMC

        lattice = LatticeState((16, 16, 16))
        lattice.randomize_alloy(np.random.default_rng(3), 0.05, 0.003)
        sim = SublatticeKMC(
            lattice, eam_small, tet_small, n_ranks=2, temperature=900.0,
            t_stop=2e-10, seed=5,
        )
        n_cycles = 6
        sim.run(n_cycles)
        stats = sim.world.stats
        # one event-count allreduce per cycle ...
        assert stats.collectives == n_cycles
        # ... accounted as one message and one float64 per rank (regression:
        # collectives used to contribute zero messages and zero bytes, so
        # calibration under-counted the communication volume)
        assert stats.messages_sent >= n_cycles * sim.world.size
        assert stats.bytes_sent >= n_cycles * sim.world.size * 8
        # and the per-cycle deltas see the collective too
        for c in sim.cycles:
            assert c.comm_messages >= sim.world.size
            assert c.comm_bytes >= sim.world.size * 8


class TestPaperShapes:
    def test_strong_efficiency_near_85_percent_at_32x(self, paper_params):
        """Fig. 12: 85% parallel efficiency from 780k to 24.96M cores."""
        cgs = [12000, 24000, 48000, 96000, 192000, 384000]
        pts = strong_scaling(paper_params, 1.92e12, cgs)
        eff = parallel_efficiency(pts)
        assert eff[0] == pytest.approx(1.0)
        assert 0.78 <= eff[-1] <= 0.92  # paper: 0.85
        assert all(b <= a + 1e-12 for a, b in zip(eff, eff[1:]))

    def test_strong_core_counts_match_paper(self, paper_params):
        pts = strong_scaling(paper_params, 1.92e12, [12000, 384000])
        assert pts[0].n_cores == 780_000
        assert pts[-1].n_cores == 24_960_000

    def test_weak_efficiency_stays_high(self, paper_params):
        cgs = [12000, 48000, 192000, 422400]
        pts = weak_scaling(paper_params, 128e6, cgs)
        eff = parallel_efficiency(pts, weak=True)
        assert min(eff) > 0.9
        assert pts[-1].n_cores == 27_456_000

    def test_imbalance_grows_as_events_shrink(self, paper_params):
        """The strong-scaling tail comes from per-cycle event starvation."""
        pts = strong_scaling(paper_params, 1.92e12, [12000, 384000])
        per_event_base = pts[0].cycle_compute / (pts[0].atoms_per_cg)
        per_event_scaled = pts[1].cycle_compute / (pts[1].atoms_per_cg)
        assert per_event_scaled > per_event_base
