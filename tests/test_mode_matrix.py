"""Golden fixed-seed trajectories of the one event path.

Each row pins where a fixed-seed run ends: the sha256 occupancy digest
(:func:`~repro.campaign.occupancy_digest`), ``float.hex`` of the simulated
clock and, for the 4-rank sublattice runs, the per-cycle event counts and
the world's message and byte totals.  A 4-rank ``sector_mode="naive"`` row
also pins the anomaly and proximity-violation counts.

The values were captured while the engines still carried their mode knobs:
kernel hot path (vectorized / legacy), rebuild path (auto / full / delta),
miss batching (auto / batched / scalar), evaluator dedup (auto / always /
never), propensity store (Fenwick tree / linear), array backend (default /
explicit NumPy) and parallel executor (inline / process).  Every valid
combination of them replayed exactly the digest, clock and event counts of
the row it belongs to — 176 serial EAM combinations, 84 serial NNP ones
(row cache on and off), 7 shared-campaign ones, 10 parallel EAM ones and
12 parallel NNP ones.  The one knob that did not was ``evaluation="delta"``:
same occupancy, but a clock that differs in the last bits (its per-direction
sums run in another order), so it has no row here.  The knobs are gone;
these rows guard the single path that is left.

The settings that still exist — row cache (off / auto / a tiny "on"
budget) and campaign mode (shared / sequential) — are run over their
whole product below, together with the two miss paths the engines pick
by themselves (batched, and per-slot for a potential that is not
``batch_row_invariant``) and the uncached OpenKMC baseline: each must
land on its row.

One more serial NNP row runs a 4-shell TET, whose rows of 8 counts are
too wide for one byte per count in 64 bits.  It was captured with the row
cache off, when rows that wide still bypassed the cache; now the cache
keys them like any other row and must land on the same values.
"""

import copy

import numpy as np
import pytest

from repro.baseline import OpenKMCEngine
from repro.campaign import ReplicaCampaign, ReplicaSpec, occupancy_digest
from repro.constants import N_ELEMENTS
from repro.core.engine import TensorKMCEngine
from repro.core.rowcache import row_entry_bytes
from repro.lattice import LatticeState
from repro.parallel import SublatticeKMC

N_STEPS = 40
N_CYCLES = 6

#: Row-cache entries of the tiny "on" budget — far below the working set,
#: so hits, evictions and re-inserts cycle continuously.
TINY_ENTRIES = 16
#: Entries for the parallel runs (one cache shared by all ranks).
PARALLEL_ENTRIES = 64

#: ``(digest, clock)`` of the serial runs.
SERIAL_EAM = (
    "a7ee670bf13f2527dfacd3b86d71d0a93be890058baeaabae559d1d231fcf31b",
    "0x1.0960509d11287p-30",
)
SERIAL_NNP = (
    "c19eadec28bf009d9f3375a806999d00eb4482150219f13a804b94741ed7eaf3",
    "0x1.cafc84d3023b9p-31",
)
#: ``(digest, clock)`` of the serial NNP run on the 4-shell TET.
SERIAL_NNP_WIDE = (
    "f3fc9f5eb8f04d653d0ca67a93f81cf080d6f24edd5caac6430025ab767e3add",
    "0x1.cbb8a9662c055p-31",
)
#: ``(digest, clock, events per cycle)`` of the 4-rank runs.
PARALLEL_EAM = (
    "a344894e1558f775fff23e057ea82964003c3d36181cea69b9cd0160a6e15462",
    "0x1.49da7e361ce4cp-30",
    (2, 5, 11, 0, 18, 0),
)
PARALLEL_NNP = (
    "90764a6627aed04fb469bd0d9cf50320c812da7f3873bd22190ba960a9f42310",
    "0x1.49da7e361ce4cp-30",
    (1, 5, 10, 0, 14, 4),
)
#: World ``CommStats`` totals ``(messages_sent, bytes_sent)`` of the 4-rank
#: runs: the ghost payloads are the changed sites, so the byte count pins
#: every rank's per-cycle ``SiteUpdates``.
PARALLEL_COMM = {"eam": (120, 6172), "nnp": (120, 6276)}
#: ``(digest, clock, events per cycle, total_anomalies,
#: proximity_violations)`` of the 4-rank EAM run with ``sector_mode="naive"``
#: (every rank evolves its whole box each cycle).
PARALLEL_NAIVE = (
    "fd5e6a2bf31ea6cbbdb19376e906ede3570e2967745d8598d93867c9245af883",
    "0x1.49da7e361ce4cp-30",
    (56, 51, 46, 39, 25, 31),
    0,
    36,
)


ROW_CACHES = pytest.mark.parametrize("row_cache", ("off", "auto", "on"))
POTENTIALS = pytest.mark.parametrize("pot", ("eam", "nnp"))


def _golden(pot):
    return {"eam": SERIAL_EAM, "nnp": SERIAL_NNP}[pot]


def _potential(request, pot):
    return request.getfixturevalue(f"{pot}_small")


def _serial(tet, pot, engine=TensorKMCEngine, **kw):
    lattice = LatticeState((8, 8, 8))
    lattice.randomize_alloy(np.random.default_rng(9), 0.05, 0.004)
    return engine(
        lattice, pot, tet, temperature=900.0,
        rng=np.random.default_rng(10), **kw,
    )


def _serial_identity(engine):
    assert engine.run(n_steps=N_STEPS, on_no_moves="stop") == N_STEPS
    return occupancy_digest(engine.lattice), float(engine.time).hex()


def _parallel(tet, pot, **kw):
    # 4 ranks need >= 4 cells of sector width per rank: 16^3 is the floor.
    lattice = LatticeState((16, 16, 16))
    lattice.randomize_alloy(np.random.default_rng(3), 0.05, 0.003)
    sim = SublatticeKMC(
        lattice, pot, tet, n_ranks=4, temperature=900.0, t_stop=2e-10,
        seed=5, **kw,
    )
    sim.run(N_CYCLES)
    return sim


def _parallel_identity(sim):
    return (
        occupancy_digest(sim.gather_global()),
        float(sim.time).hex(),
        tuple(c.events for c in sim.cycles),
    )


def _row_cache_kw(row_cache, n_entries, tet):
    """Engine kwargs; ``on`` gets a budget of ``n_entries`` of ``tet``'s rows."""
    kw = {"row_cache": row_cache}
    if row_cache == "on":
        entry = row_entry_bytes(tet.n_shells * N_ELEMENTS)
        kw["row_cache_mb"] = n_entries * entry / (1024.0 * 1024.0)
    return kw


class TestGoldenTrajectories:
    @POTENTIALS
    @ROW_CACHES
    def test_serial(self, request, tet_small, pot, row_cache):
        engine = _serial(
            tet_small, _potential(request, pot),
            **_row_cache_kw(row_cache, TINY_ENTRIES, tet_small),
        )
        assert _serial_identity(engine) == _golden(pot)
        if pot == "nnp" and row_cache == "on":
            # 16 entries: hits, evictions and re-inserts all cycle.
            counters = engine.kernel.counters()
            assert counters["row_cache_hits"] > 0
            assert counters["row_cache_evictions"] > 0
            assert len(engine.row_cache) == TINY_ENTRIES

    @ROW_CACHES
    def test_serial_wide_rows(self, tet_wide, nnp_wide, row_cache):
        engine = _serial(
            tet_wide, nnp_wide,
            **_row_cache_kw(row_cache, TINY_ENTRIES, tet_wide),
        )
        assert _serial_identity(engine) == SERIAL_NNP_WIDE
        counters = engine.kernel.counters()
        if row_cache == "auto":
            assert counters["row_cache_hits"] > 0
        if row_cache == "on":
            assert counters["row_cache_evictions"] > 0
            assert len(engine.row_cache) == TINY_ENTRIES

    @POTENTIALS
    def test_per_slot_miss_path(self, request, tet_small, pot):
        """A potential that is not ``batch_row_invariant`` is evaluated one
        vacancy at a time, and lands on the batched path's row."""
        variant = copy.copy(_potential(request, pot))
        variant.batch_row_invariant = False
        engine = _serial(tet_small, variant)
        assert engine.kernel.build_entries is None
        assert _serial_identity(engine) == _golden(pot)

    @POTENTIALS
    def test_uncached_openkmc_baseline(self, request, tet_small, pot):
        engine = _serial(
            tet_small, _potential(request, pot), engine=OpenKMCEngine
        )
        assert _serial_identity(engine) == _golden(pot)

    @POTENTIALS
    @pytest.mark.parametrize("mode", ("shared", "sequential"))
    def test_campaign(self, request, tet_small, pot, mode):
        potential = _potential(request, pot)
        results = ReplicaCampaign(
            [ReplicaSpec("m", seed=0, n_steps=N_STEPS)],
            lambda spec: _serial(tet_small, potential),
            mode=mode,
        ).run()
        got = (results[0].digest, float(results[0].time).hex())
        assert got == _golden(pot)

    @POTENTIALS
    @ROW_CACHES
    def test_parallel_4_ranks(self, request, tet_small, pot, row_cache):
        sim = _parallel(
            tet_small, _potential(request, pot),
            **_row_cache_kw(row_cache, PARALLEL_ENTRIES, tet_small),
        )
        got = _parallel_identity(sim)
        assert got == {"eam": PARALLEL_EAM, "nnp": PARALLEL_NNP}[pot]
        stats = sim.world.stats
        assert (stats.messages_sent, stats.bytes_sent) == PARALLEL_COMM[pot]

    def test_parallel_naive_4_ranks(self, tet_small, eam_small):
        sim = _parallel(tet_small, eam_small, sector_mode="naive")
        got = _parallel_identity(sim) + (
            sim.total_anomalies, sim.proximity_violations,
        )
        assert got == PARALLEL_NAIVE
