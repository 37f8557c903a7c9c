"""Scaling model: cost structure, the derived tail and the Fig. 12/13 shapes."""

import functools

import numpy as np
import pytest

from benchmarks.bench_fig12_strong_scaling import EFFICIENCY, modeled_event_seconds
from repro.constants import (
    ATTEMPT_FREQUENCY,
    EA0_FE,
    KB_EV,
    T_STOP,
    TEMPERATURE_RPV,
    VACANCY_CONCENTRATION,
)
from repro.lattice import LatticeState
from repro.parallel import (
    N_SECTORS,
    ScalingParameters,
    SublatticeKMC,
    expected_max_events,
    parallel_efficiency,
    strong_scaling,
    weak_scaling,
)
from repro.sunway import CORES_PER_CG


@pytest.fixture(scope="module")
def paper_params():
    return ScalingParameters(modeled_event_seconds(), bytes_per_boundary_cell=0.05)


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

    def test_paper_workload(self, paper_params):
        """v = 5 vacancies per active sector and mu = 1.84 events per
        vacancy at 384,000 CGs: lambda = 9.2 events per CG per cycle."""
        v = 1.92e12 / 384000 * VACANCY_CONCENTRATION / N_SECTORS
        gamma = 8 * ATTEMPT_FREQUENCY * np.exp(-EA0_FE / (KB_EV * TEMPERATURE_RPV))
        mu = gamma * T_STOP
        assert v == pytest.approx(5.0)
        assert mu == pytest.approx(1.84, rel=2e-3)
        pt = strong_scaling(paper_params, 1.92e12, [384000])[0]
        assert pt.cycle_compute == pytest.approx(
            expected_max_events(v, mu, 384000) * paper_params.compute_seconds_per_event,
            rel=1e-12,
        )


class TestExpectedMax:
    def test_one_cg_is_the_mean(self):
        assert expected_max_events(4.6, 1.3, 1) == pytest.approx(4.6 * 1.3, rel=1e-12)

    def test_empty_sectors_run_nothing(self):
        assert expected_max_events(0.0, 1.3, 8) == 0.0
        assert expected_max_events(4.6, 0.0, 8) == 0.0

    def test_grows_with_cg_count(self):
        values = [expected_max_events(5.0, 1.84, p) for p in (1, 10, 1000, 384000)]
        assert values == sorted(values)
        assert values[-1] > 4 * values[0]

    def test_matches_sampled_maxima(self):
        """200,000 sampled cycles of 8 CGs: the sample mean of the maximum
        has a standard error below 0.01, so 0.05 is a 5-SE band."""
        rng = np.random.default_rng(0)
        counts = rng.poisson(rng.poisson(4.1, (200_000, 8)) * 1.3)
        assert counts.max(axis=1).mean() == pytest.approx(
            expected_max_events(4.1, 1.3, 8), abs=0.05
        )


def _poisson_expected_max(lam, n):
    """E[max of n Poisson(lam) draws], the law without vacancy-count noise."""
    k = np.arange(int(lam + 10 * np.sqrt(lam) + 40))
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, k.size)))))
    sf = np.cumsum(np.exp(k * np.log(lam) - lam - log_fact)[::-1])[::-1]
    return float(-np.expm1(n * np.log1p(-np.minimum(sf[1:], 1.0))).sum())


_GRIDS = {2: (2, 1, 1), 4: (2, 2, 1), 8: (2, 2, 2)}
_CYCLES = 64


@pytest.fixture(scope="module")
def cycle_counts(tet_small, eam_small):
    """Per-cycle (active vacancies, events) of every rank, one run per rank
    count: pure Fe with c_v = 0.004 at 900 K, t_stop = 2e-10 s, 16^3 cells
    per rank."""

    @functools.lru_cache(maxsize=None)
    def counts(n_ranks):
        grid = _GRIDS[n_ranks]
        lattice = LatticeState(tuple(16 * g for g in grid))
        lattice.randomize_alloy(np.random.default_rng(3), 0.0, 0.004)
        sim = SublatticeKMC(
            lattice, eam_small, tet_small, n_ranks=n_ranks, grid=grid,
            temperature=900.0, t_stop=2e-10, seed=3,
        )
        active, events = [], []
        for _ in range(_CYCLES):
            sector = sim.sector_index % N_SECTORS
            active.append([
                sum(r.sector_of(r.kernel.key_of(s)) == sector
                    for s in r.kernel.live_slots())
                for r in sim.ranks
            ])
            before = [r.events for r in sim.ranks]
            sim.cycle()
            events.append([r.events - b for r, b in zip(sim.ranks, before)])
        return np.array(active), np.array(events)

    return counts


class TestMaxOfPLawOnRealRuns:
    """The busiest rank of a real `SublatticeKMC` cycle follows the law.

    Derivation.  In a cycle each rank runs its active sector until its clock
    passes t_stop.  The sector holds n vacancies, placed at random, so n is
    Poisson(v) to the accuracy of a binomial over the sector's 1024 sites at
    c_v = 0.004.  Given n, the events are Poisson(n * mu): pure Fe gives
    every vacancy the same total hop rate.  A vacancy that leaves the sector
    is deactivated; that thins its count (mu is about 0.6 of
    Gamma_vac * t_stop in 16^3-cell boxes), and measuring mu as events per
    active vacancy absorbs the thinning.  The measured v is the mean active
    count.  So one rank's count is compound Poisson, and the mean over
    cycles of the busiest rank's count estimates
    ``expected_max_events(v, mu, P)``.

    Tolerance.  Consecutive cycles run different sectors, so the per-cycle
    maxima are taken as independent: the standard error is their sample
    standard deviation over sqrt(64).  The band is 3 SE (0.27 % two-sided
    under normality).  A single Poisson at the same mean has variance
    lambda, not lambda * (1 + mu); its maximum is lower, and at 8 ranks it
    falls outside the band, which is why the model carries the compound term.
    """

    @staticmethod
    def _band(active, events):
        v = active.mean()
        mu = events.sum() / active.sum()
        busiest = events.max(axis=1)
        se = busiest.std(ddof=1) / np.sqrt(len(busiest))
        return v, mu, busiest.mean(), se

    @pytest.mark.parametrize("n_ranks", [2, 4, 8])
    def test_mean_max_within_3se_of_law(self, n_ranks, cycle_counts):
        v, mu, mean_max, se = self._band(*cycle_counts(n_ranks))
        assert v > 3.0 and mu > 1.0  # enough work per cycle to test a tail
        assert abs(mean_max - expected_max_events(v, mu, n_ranks)) < 3 * se

    def test_single_poisson_misses_at_8_ranks(self, cycle_counts):
        v, mu, mean_max, se = self._band(*cycle_counts(8))
        assert mean_max - _poisson_expected_max(v * mu, 8) > 3 * se


class TestCalibrationTraffic:
    """The model is calibrated from CommStats, so CommStats must see *all*
    protocol traffic — including the per-cycle time-sync collective."""

    def test_collective_traffic_reaches_comm_stats(self, tet_small, eam_small):
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
    def test_strong_efficiency_is_derived(self, paper_params):
        """Fig. 12.  The paper reports 85% at 24.96M cores; the derived tail
        gives 29% (EXPERIMENTS.md names the input the paper must differ in)."""
        cgs = [12000, 24000, 48000, 96000, 192000, 384000]
        eff = parallel_efficiency(strong_scaling(paper_params, 1.92e12, cgs))
        assert eff == pytest.approx(EFFICIENCY, rel=1e-9)
        assert all(b <= a + 1e-12 for a, b in zip(eff, eff[1:]))

    def test_strong_core_counts_match_paper(self, paper_params):
        pts = strong_scaling(paper_params, 1.92e12, [12000, 384000])
        assert pts[0].n_cores == 780_000
        assert pts[-1].n_cores == 24_960_000

    def test_weak_efficiency_stays_high(self, paper_params):
        cgs = [12000, 48000, 192000, 422400]
        pts = weak_scaling(paper_params, 128e6, cgs)
        eff = parallel_efficiency(pts, weak=True)
        assert eff == pytest.approx(
            [1.0, 0.9720260394163782, 0.9470041703711343, 0.9338656969588743],
            rel=1e-9,
        )
        assert min(eff) > 0.9
        assert pts[-1].n_cores == 27_456_000

    def test_imbalance_grows_as_events_shrink(self, paper_params):
        """The strong-scaling tail: compute per atom grows as events per CG
        shrink and the maximum is taken over more CGs."""
        pts = strong_scaling(paper_params, 1.92e12, [12000, 384000])
        per_event_base = pts[0].cycle_compute / (pts[0].atoms_per_cg)
        per_event_scaled = pts[1].cycle_compute / (pts[1].atoms_per_cg)
        assert per_event_scaled > per_event_base
