"""Synchronous sublattice KMC: invariants across rank configurations."""

import numpy as np
import pytest

from repro.constants import CU, FE, VACANCY
from repro.core import TensorKMCEngine, TripleEncoding
from repro.lattice import LatticeState
from repro.parallel import N_SECTORS, SectorGeometry, SublatticeKMC
from repro.lattice.domain import DomainBox


def _alloy(shape=(16, 16, 16), seed=3, cu=0.05, vac=0.003):
    lat = LatticeState(shape)
    lat.randomize_alloy(np.random.default_rng(seed), cu, vac)
    return lat


@pytest.fixture(scope="module")
def small_parallel(tet_small, eam_small):
    lat = _alloy()
    sim = SublatticeKMC(
        lat, eam_small, tet_small, n_ranks=4, temperature=900.0,
        t_stop=2e-10, seed=5,
    )
    for _ in range(16):
        sim.cycle()
        # every cycle must leave the mail system empty (protocol invariant)
        sim.world.assert_drained()
    return lat, sim


class TestSectorGeometry:
    def test_sector_count(self):
        geo = SectorGeometry(DomainBox((0, 0, 0), (8, 8, 8)), min_width_cells=4)
        cells = np.stack(
            np.meshgrid(*(np.arange(8),) * 3, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        sectors = geo.sector_of_local_cell(cells)
        assert set(sectors.tolist()) == set(range(N_SECTORS))
        counts = np.bincount(sectors)
        assert np.all(counts == 64)  # octants of an 8^3 box

    def test_too_small_box_rejected(self):
        with pytest.raises(ValueError):
            SectorGeometry(DomainBox((0, 0, 0), (6, 8, 8)), min_width_cells=4)


class TestInvariants:
    def test_species_conserved(self, small_parallel):
        lat, sim = small_parallel
        before = lat.species_counts()
        after = sim.gather_global().species_counts()
        assert np.array_equal(before, after)

    def test_ghost_consistency_after_run(self, small_parallel):
        _, sim = small_parallel
        assert sim.check_ghost_consistency()

    def test_events_executed(self, small_parallel):
        _, sim = small_parallel
        assert sim.total_events > 0

    def test_time_advances_by_t_stop(self, small_parallel):
        _, sim = small_parallel
        assert sim.time == pytest.approx(16 * sim.t_stop)

    def test_sector_rotation(self, small_parallel):
        _, sim = small_parallel
        sectors = [c.sector for c in sim.cycles]
        assert sectors[:8] == list(range(8))
        assert sectors[8:16] == list(range(8))

    @pytest.mark.parametrize("n_ranks,grid", [(1, None), (2, None), (8, (2, 2, 2))])
    def test_various_rank_counts(self, tet_small, eam_small, n_ranks, grid):
        lat = _alloy(seed=7)
        before = lat.species_counts().copy()
        sim = SublatticeKMC(
            lat, eam_small, tet_small, n_ranks=n_ranks, grid=grid,
            temperature=900.0, t_stop=2e-10, seed=1,
        )
        for _ in range(8):
            sim.cycle()
            sim.world.assert_drained()
        assert np.array_equal(sim.gather_global().species_counts(), before)
        assert sim.check_ghost_consistency()

    def test_stray_message_fails_next_cycle(self, tet_small, eam_small):
        """An unconsumed message is a protocol violation, not silent debris:
        the end-of-cycle drain check reports it as a ProtocolError."""
        from repro.parallel import ProtocolError

        lat = _alloy(seed=7)
        sim = SublatticeKMC(
            lat, eam_small, tet_small, n_ranks=2, temperature=900.0,
            t_stop=2e-10, seed=1,
        )
        sim.run(2)
        sim.world.comm(0).send(1, "stray", b"oops")
        with pytest.raises(ProtocolError) as exc:
            sim.cycle()
        assert exc.value.tag == "stray"

    def test_determinism(self, tet_small, eam_small):
        finals = []
        for _ in range(2):
            lat = _alloy(seed=9)
            sim = SublatticeKMC(
                lat, eam_small, tet_small, n_ranks=2, temperature=900.0,
                t_stop=2e-10, seed=4,
            )
            sim.run(8)
            finals.append(sim.gather_global().occupancy)
        assert np.array_equal(finals[0], finals[1])

    def test_vacancies_still_on_lattice(self, small_parallel):
        lat, sim = small_parallel
        g = sim.gather_global()
        n_vac = int(np.sum(g.occupancy == VACANCY))
        assert n_vac == int(np.sum(lat.occupancy == VACANCY))

    def test_communication_happened(self, small_parallel):
        _, sim = small_parallel
        assert sim.world.stats.messages_sent > 0

    def test_rejections_are_counted(self, tet_small, eam_small):
        # with a tiny t_stop nearly every sector cycle ends in a rejection
        lat = _alloy(seed=11)
        sim = SublatticeKMC(
            lat, eam_small, tet_small, n_ranks=2, temperature=900.0,
            t_stop=1e-16, seed=2,
        )
        sim.run(8)
        assert sum(c.rejected for c in sim.cycles) > 0
        assert sim.total_events == 0


class TestAgainstSerial:
    def test_event_rate_statistically_matches_serial(self, tet_small, eam_small):
        """Events per simulated second agree with the serial engine (~%)."""
        lat_s = _alloy(seed=21, vac=0.004)
        serial = TensorKMCEngine(
            lat_s, eam_small, tet_small, temperature=900.0,
            rng=np.random.default_rng(0),
        )
        serial.run(n_steps=200)
        serial_rate = serial.step_count / serial.time

        lat_p = _alloy(seed=21, vac=0.004)
        # pick t_stop so a sector cycle executes a handful of events
        t_stop = 20.0 / serial_rate
        sim = SublatticeKMC(
            lat_p, eam_small, tet_small, n_ranks=1, temperature=900.0,
            t_stop=t_stop, seed=0,
        )
        sim.run(16)
        parallel_rate = sim.total_events / sim.time
        # The sublattice algorithm is semirigorous: only 1/8 of the domain is
        # active per cycle, so the executed event rate is ~1/8 the serial one.
        assert parallel_rate == pytest.approx(serial_rate / 8.0, rel=0.35)


class TestHopGeometry:
    def test_parallel_hops_are_1nn(self, tet_small, eam_small):
        """Every executed parallel hop moves the vacancy one 1NN step."""
        lat = _alloy(seed=31, vac=0.004)
        sim = SublatticeKMC(
            lat, eam_small, tet_small, n_ranks=2, temperature=900.0,
            t_stop=5e-10, seed=2,
        )
        # Observe the SiteUpdates each sector returns: (origin, target) pairs.
        from repro.parallel.engine import RankState

        updates = []
        orig_run = RankState.run_sector

        def instrumented(self, sector, t_stop):
            ups = orig_run(self, sector, t_stop)
            updates.append(ups)
            return ups

        RankState.run_sector = instrumented
        try:
            sim.run(8)
        finally:
            RankState.run_sector = orig_run
        n_pairs = sum(len(ups) for ups in updates) // 2
        assert n_pairs == sim.total_events > 0
        dims = np.array(sim.global_shape)
        for ups in updates:
            assert len(ups) % 2 == 0
            # Global half-unit positions; the 1NN step is (+-1, +-1, +-1)
            # under the periodic minimum image.
            half = 2 * ups.cell + ups.sublattice[:, None]
            delta = half[1::2] - half[0::2]
            delta -= 2 * dims * np.round(delta / (2 * dims)).astype(np.int64)
            assert np.all(np.abs(delta) == 1)


class TestAnomalyPath:
    def test_stale_vacancy_is_counted_not_hopped(self, tet_small, eam_small):
        """A registered vacancy whose site no longer holds one (stale data)
        is counted as an anomaly and dropped from the active set; nothing
        is written and no event is executed."""
        lat = _alloy(seed=31, vac=0.004)
        sim = SublatticeKMC(
            lat, eam_small, tet_small, n_ranks=1, temperature=900.0,
            t_stop=5e-10, seed=2,
        )
        rank = sim.ranks[0]
        kernel = rank.kernel
        kernel.refresh()  # cache every row against the true occupancy
        live = kernel.live_slots()
        for slot in live:
            x, y, z = kernel.key_of(slot)
            rank.window.occupancy[x & 1, x >> 1, y >> 1, z >> 1] = FE
        before = rank.window.occupancy.copy()
        # A long interval: every slot is selected (and blocked) once.
        ups = rank.run_sector(None, 1.0)
        assert len(ups) == 0
        assert rank.events == 0
        assert rank.anomalies == len(live) > 0
        assert np.array_equal(rank.window.occupancy, before)


class TestConflictDemonstration:
    """The Fig. 2b ablation: sublattice protocol vs naive decomposition."""

    def _run(self, tet, pot, mode, cycles=16):
        lat = LatticeState((16, 16, 16))
        lat.randomize_alloy(np.random.default_rng(3), 0.0134, 0.01)
        before = lat.species_counts().copy()
        sim = SublatticeKMC(
            lat, pot, tet, n_ranks=8, grid=(2, 2, 2), temperature=900.0,
            t_stop=5e-10, seed=5, sector_mode=mode,
        )
        sim.run(cycles)
        conserved = np.array_equal(
            sim.gather_global().species_counts(), before
        )
        return sim, conserved

    def test_sublattice_is_conflict_free(self, tet_small, eam_small):
        sim, conserved = self._run(tet_small, eam_small, "sublattice")
        assert sim.total_events > 0
        assert sim.proximity_violations == 0
        assert sim.total_anomalies == 0
        assert conserved

    def test_naive_mode_produces_conflicts(self, tet_small, eam_small):
        sim, conserved = self._run(tet_small, eam_small, "naive")
        assert sim.proximity_violations > 0
        # conflicting ghost writes destroy atoms — the failure the
        # synchronous sublattice algorithm exists to prevent
        assert not conserved

    def test_unknown_mode_rejected(self, tet_small, eam_small):
        lat = _alloy()
        with pytest.raises(ValueError):
            SublatticeKMC(
                lat, eam_small, tet_small, n_ranks=2, sector_mode="bogus"
            )
