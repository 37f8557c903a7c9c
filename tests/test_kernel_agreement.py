"""Serial <-> parallel agreement and trajectory bit-identity over the kernel.

The golden checksum below was captured from the seed commit (before the
engines were rebased on the shared event kernel): with a fixed seed the
refactored :class:`TensorKMCEngine` must reproduce the exact same event
stream bit for bit (the Fig. 8 validation invariant).
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from repro.core.engine import TensorKMCEngine
from repro.lattice.occupancy import LatticeState
from repro.parallel.engine import SublatticeKMC

# sha256 over (slot, from_site, to_site, direction, dt, total_rate) of 120
# events, and over the final occupancy array, from the seed commit.
GOLDEN_EVENT_SHA = "d10f21757b8905aa11e85114be90429805f67edd791f84b4f783265b298cb053"
GOLDEN_OCCUPANCY_SHA = (
    "64a7601897d18606357d2169789fac23bb3a3d724f749b9a3ed4983e6778058e"
)
GOLDEN_FINAL_TIME = 4.2037441855097514e-09


def test_serial_trajectory_bit_identical_to_seed(tet_small, eam_small):
    lattice = LatticeState((8, 8, 8))
    lattice.randomize_alloy(
        np.random.default_rng(1234), cu_fraction=0.05, vacancy_fraction=0.003
    )
    engine = TensorKMCEngine(
        lattice, eam_small, tet_small,
        temperature=900.0, rng=np.random.default_rng(4321),
    )
    digest = hashlib.sha256()
    for _ in range(120):
        ev = engine.step()
        digest.update(
            struct.pack(
                "<qqqqdd",
                ev.slot, ev.from_site, ev.to_site, ev.direction,
                ev.dt, ev.total_rate,
            )
        )
    assert digest.hexdigest() == GOLDEN_EVENT_SHA
    assert hashlib.sha256(lattice.occupancy.tobytes()).hexdigest() == (
        GOLDEN_OCCUPANCY_SHA
    )
    assert engine.time == GOLDEN_FINAL_TIME


@pytest.fixture()
def one_rank_setup(tet_small, eam_small):
    lattice = LatticeState((8, 8, 8))
    lattice.randomize_alloy(
        np.random.default_rng(5150), cu_fraction=0.05, vacancy_fraction=0.004
    )
    sim = SublatticeKMC(
        lattice, eam_small, tet_small,
        n_ranks=1, temperature=1200.0, t_stop=5e-7, seed=99,
    )
    return lattice, sim


def test_one_rank_initial_propensity_matches_serial(
    one_rank_setup, tet_small, eam_small
):
    lattice, sim = one_rank_setup
    # The driver scattered copies into the rank windows; the global lattice
    # is untouched, so the serial engine can read it directly.
    serial = TensorKMCEngine(
        lattice, eam_small, tet_small, temperature=1200.0,
        rng=np.random.default_rng(0),
    )
    rank = sim.ranks[0]
    rank.kernel.refresh()
    # One rank owns the whole box: same vacancies, same rates, same total.
    assert rank.kernel.total == pytest.approx(
        serial.total_propensity(), rel=1e-12
    )
    # And slot-for-slot: np.nonzero scan order == ascending flat site order.
    serial_cache, rank_cache = serial.cache, rank.kernel.cache
    assert serial_cache.fresh[: serial_cache.n_slots].all()
    assert rank_cache.fresh[: rank_cache.n_slots].all()
    serial_totals = serial_cache.total_rates[: serial_cache.n_slots].tolist()
    rank_totals = rank_cache.total_rates[: rank_cache.n_slots].tolist()
    assert rank_totals == pytest.approx(serial_totals, rel=1e-12)


def test_one_rank_sublattice_invariants(one_rank_setup):
    lattice, sim = one_rank_setup
    n_vac_before = int((lattice.occupancy == lattice.vacancy_code).sum())
    sim.run(16)
    assert sim.total_events > 0
    assert sim.total_anomalies == 0
    assert sim.proximity_violations == 0
    assert sim.check_ghost_consistency()
    gathered = sim.gather_global()
    assert int((gathered.occupancy == lattice.vacancy_code).sum()) == n_vac_before
    # The kernel registry tracks exactly the surviving vacancies.
    rank = sim.ranks[0]
    assert rank.kernel.cache.n_live == n_vac_before
    summary = sim.summary()
    assert summary["selections"] >= sim.total_events
    assert summary["cache_hits"] + summary["cache_misses"] > 0


def test_cycle_stats_carry_kernel_counters(one_rank_setup):
    _, sim = one_rank_setup
    stats = sim.run(8)
    assert sum(c.cache_misses for c in stats) > 0
    assert sum(c.selections for c in stats) >= sim.total_events
    assert sum(c.selection_depth for c in stats) >= sum(
        c.selections for c in stats
    )
    # Counters are per-cycle deltas, not running totals.
    totals = sim._kernel_counters()
    assert sum(c.cache_misses for c in stats) == totals["cache_misses"]
