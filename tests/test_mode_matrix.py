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

The row cache is the one setting left, and only as an attached object:
each row is run with the cache detached (``off``), with the engine's
default one (``auto``) and with a tiny byte budget (``on``), together
with the uncached OpenKMC baseline and the shared campaign: each must land
on its row.  Running a campaign's replicas one after another is the serial
row.  The per-slot miss path for a potential that is not
``batch_row_invariant`` also landed on the rows; it is gone, and such a
potential is refused when an engine is built.

One more serial NNP row runs a 4-shell TET, whose rows of 8 counts are
too wide for one byte per count in 64 bits.  It was captured with the row
cache off, when rows that wide still bypassed the cache; now the cache
keys them like any other row and must land on the same values.

The miss pipeline evaluates large batches in chunks under a byte budget
(``MISS_CHUNK_BYTES``).  With that budget shrunk so every batch splits
into many chunks — ragged last chunks included — the NNP rows must still
land on the same values, and the chunked evaluator calls must equal the
unchunked ones bit for bit.  The cold refresh's traced peak must stay
within the memory model's ``miss_transient`` bound.
"""

import copy
import tracemalloc

import numpy as np
import pytest

from repro.baseline import OpenKMCEngine, tensorkmc_memory_model
from repro.campaign import ReplicaCampaign, ReplicaSpec, occupancy_digest
from repro.core import vacancy_system
from repro.core.engine import TensorKMCEngine
from repro.core.rowcache import ROW_ENTRY_BYTES, RowEnergyCache
from repro.core.vacancy_system import VacancySystemEvaluator, miss_row_bytes
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
    assert engine.run(n_steps=N_STEPS) == N_STEPS
    return occupancy_digest(engine.lattice), float(engine.time).hex()


def _parallel(tet, pot, prepare=lambda sim: sim, **kw):
    # 4 ranks need >= 4 cells of sector width per rank: 16^3 is the floor.
    lattice = LatticeState((16, 16, 16))
    lattice.randomize_alloy(np.random.default_rng(3), 0.05, 0.003)
    sim = prepare(SublatticeKMC(
        lattice, pot, tet, n_ranks=4, temperature=900.0, t_stop=2e-10,
        seed=5, **kw,
    ))
    sim.run(N_CYCLES)
    return sim


def _parallel_identity(sim):
    return (
        occupancy_digest(sim.gather_global()),
        float(sim.time).hex(),
        tuple(c.events for c in sim.cycles),
    )


def _with_row_cache(driver, row_cache, n_entries):
    """``driver`` with its row cache detached (``off``), kept (``auto``) or
    swapped for a budget of ``n_entries`` entries (``on``)."""
    if row_cache == "off":
        driver.evaluator.attach_row_cache(None)
    elif row_cache == "on":
        driver.evaluator.attach_row_cache(
            RowEnergyCache(max_bytes=n_entries * ROW_ENTRY_BYTES)
        )
    return driver


class TestGoldenTrajectories:
    @POTENTIALS
    @ROW_CACHES
    def test_serial(self, request, tet_small, pot, row_cache):
        engine = _with_row_cache(
            _serial(tet_small, _potential(request, pot)),
            row_cache, TINY_ENTRIES,
        )
        assert _serial_identity(engine) == _golden(pot)
        if row_cache != "off":
            assert engine.row_cache.hits > 0
        if row_cache == "on":
            # 16 entries: hits, evictions and re-inserts all cycle.
            assert engine.row_cache.evictions > 0
            assert len(engine.row_cache) == TINY_ENTRIES

    @ROW_CACHES
    def test_serial_wide_rows(self, tet_wide, nnp_wide, row_cache):
        engine = _with_row_cache(
            _serial(tet_wide, nnp_wide), row_cache, TINY_ENTRIES
        )
        assert _serial_identity(engine) == SERIAL_NNP_WIDE
        if row_cache == "auto":
            assert engine.row_cache.hits > 0
        if row_cache == "on":
            assert engine.row_cache.evictions > 0
            assert len(engine.row_cache) == TINY_ENTRIES

    @POTENTIALS
    def test_row_variant_potential_is_refused(self, request, tet_small, pot):
        """A potential that is not ``batch_row_invariant`` cannot build an
        engine, serial or parallel: the error names the attribute."""
        variant = copy.copy(_potential(request, pot))
        variant.batch_row_invariant = False
        with pytest.raises(ValueError, match="batch_row_invariant"):
            _serial(tet_small, variant)
        with pytest.raises(ValueError, match="batch_row_invariant"):
            SublatticeKMC(
                LatticeState((16, 16, 16)), variant, tet_small, n_ranks=4
            )

    @POTENTIALS
    def test_uncached_openkmc_baseline(self, request, tet_small, pot):
        engine = _serial(
            tet_small, _potential(request, pot), engine=OpenKMCEngine
        )
        assert _serial_identity(engine) == _golden(pot)

    @POTENTIALS
    def test_campaign(self, request, tet_small, pot):
        potential = _potential(request, pot)
        results = ReplicaCampaign(
            [ReplicaSpec("m", seed=0, n_steps=N_STEPS)],
            lambda spec: _serial(tet_small, potential),
        ).run()
        got = (results[0].digest, float(results[0].time).hex())
        assert got == _golden(pot)

    @POTENTIALS
    @ROW_CACHES
    def test_parallel_4_ranks(self, request, tet_small, pot, row_cache):
        sim = _parallel(
            tet_small, _potential(request, pot),
            lambda sim: _with_row_cache(
                sim, row_cache, PARALLEL_ENTRIES
            ),
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


def _pairs_budget(tet, n_pairs):
    """A ``MISS_CHUNK_BYTES`` of ``n_pairs`` row pairs: every miss chunk
    holds ``n_pairs`` ``(vacancy, region row)`` pairs."""
    return n_pairs * 9 * miss_row_bytes(tet)


@pytest.fixture()
def chunk_sizes(monkeypatch):
    """Records the size of every chunk the evaluator runs."""
    sizes = {"pairs": []}
    pair_energies = VacancySystemEvaluator._pair_energies

    def pairs(self, vets, pair_b, pair_r):
        sizes["pairs"].append(len(pair_b))
        return pair_energies(self, vets, pair_b, pair_r)

    monkeypatch.setattr(VacancySystemEvaluator, "_pair_energies", pairs)
    return sizes


class TestChunkBoundaries:
    """A batch split into chunks evaluates to the unchunked bits."""

    #: Vacancies and region rows of the direct evaluator checks: 7 x 59 =
    #: 413 pairs, which 4 and 64 do not divide (ragged last chunks).
    N_VACANCIES = 7

    @pytest.fixture(params=["eam", "nnp"])
    def batch(self, request, tet_small):
        """An evaluator and the VETs of ``N_VACANCIES`` vacancies."""
        lattice = LatticeState((8, 8, 8))
        lattice.randomize_alloy(np.random.default_rng(9), 0.05, 0.01)
        engine = TensorKMCEngine(
            lattice, _potential(request, request.param), tet_small
        )
        sites = sorted(lattice.vacancy_ids)[: self.N_VACANCIES]
        assert len(sites) == self.N_VACANCIES
        return engine.evaluator, engine.sites.gather(sites)

    @staticmethod
    def _fresh_cache(evaluator):
        """A new row cache, so each call starts cold like a refresh."""
        evaluator.attach_row_cache(RowEnergyCache())

    @pytest.mark.parametrize("n_pairs", [1, 4, 64])
    def test_evaluate_rows(self, monkeypatch, batch, chunk_sizes, n_pairs):
        evaluator, vets = batch
        n_region = evaluator.tet.n_region
        pair_b = np.repeat(np.arange(len(vets)), n_region)
        pair_r = np.tile(np.arange(n_region), len(vets))
        self._fresh_cache(evaluator)
        whole = evaluator.evaluate_rows(vets, pair_b, pair_r)
        assert chunk_sizes["pairs"] == [len(pair_b)]
        monkeypatch.setattr(
            vacancy_system, "MISS_CHUNK_BYTES",
            _pairs_budget(evaluator.tet, n_pairs),
        )
        chunk_sizes["pairs"].clear()
        self._fresh_cache(evaluator)
        chunked = evaluator.evaluate_rows(vets, pair_b, pair_r)
        sizes = chunk_sizes["pairs"]
        assert sizes[:-1] == [n_pairs] * (len(sizes) - 1)
        assert sum(sizes) == len(pair_b) and 0 < sizes[-1] <= n_pairs
        assert chunked.dtype == whole.dtype
        assert np.array_equal(chunked, whole)

    @pytest.mark.parametrize("n_vacancies", [1, 2, 3])
    def test_evaluate_batch(
        self, monkeypatch, batch, chunk_sizes, n_vacancies
    ):
        evaluator, vets = batch
        n_region = evaluator.tet.n_region
        self._fresh_cache(evaluator)
        whole = evaluator.evaluate_batch(vets)
        assert chunk_sizes["pairs"] == [len(vets) * n_region]
        # Chunks of whole pairs: n_vacancies vacancies' worth of rows.
        n_pairs = n_vacancies * n_region
        monkeypatch.setattr(
            vacancy_system, "MISS_CHUNK_BYTES",
            _pairs_budget(evaluator.tet, n_pairs),
        )
        chunk_sizes["pairs"].clear()
        self._fresh_cache(evaluator)
        chunked = evaluator.evaluate_batch(vets)
        sizes = chunk_sizes["pairs"]
        assert sizes[:-1] == [n_pairs] * (len(sizes) - 1)
        assert sum(sizes) == len(vets) * n_region
        assert 0 < sizes[-1] <= n_pairs
        for field in ("initial", "delta", "valid", "migrating_species"):
            assert np.array_equal(
                getattr(chunked, field), getattr(whole, field)
            ), field

    def test_later_chunks_hit_earlier_inserts(
        self, monkeypatch, tet_small, nnp_small
    ):
        """Chunk k + 1 probes the rows chunk k inserted: the cold refresh's
        hit counter counts those cross-chunk hits."""
        evaluated = []
        energies_from_counts = type(nnp_small).energies_from_counts

        def counted(self, centers, counts):
            evaluated[-1] += len(centers)
            return energies_from_counts(self, centers, counts)

        monkeypatch.setattr(
            type(nnp_small), "energies_from_counts", counted
        )
        counters = []
        for budget in (vacancy_system.MISS_CHUNK_BYTES,
                       _pairs_budget(tet_small, 2)):
            monkeypatch.setattr(vacancy_system, "MISS_CHUNK_BYTES", budget)
            engine = _serial(tet_small, nnp_small)
            evaluated.append(0)
            engine.kernel.refresh()
            counters.append(engine.row_cache.counters())
        whole, chunked = counters
        # Every distinct row reaches the potential once either way...
        assert 0 < evaluated[1] == evaluated[0]
        # ...every row is probed once either way...
        assert (chunked["row_cache_hits"] + chunked["row_cache_misses"]
                == whole["row_cache_hits"] + whole["row_cache_misses"])
        # ...and rows a later chunk repeats are hits, not dedup.
        assert chunked["row_cache_hits"] > whole["row_cache_hits"]

    # -- the golden rows, every batch split ---------------------------

    @ROW_CACHES
    def test_serial_nnp(
        self, monkeypatch, chunk_sizes, tet_small, nnp_small, row_cache
    ):
        monkeypatch.setattr(
            vacancy_system, "MISS_CHUNK_BYTES", _pairs_budget(tet_small, 2)
        )
        engine = _with_row_cache(
            _serial(tet_small, nnp_small), row_cache, TINY_ENTRIES
        )
        assert _serial_identity(engine) == SERIAL_NNP
        assert max(chunk_sizes["pairs"]) == 2
        assert len(chunk_sizes["pairs"]) > N_STEPS

    @ROW_CACHES
    def test_serial_wide_rows(
        self, monkeypatch, chunk_sizes, tet_wide, nnp_wide, row_cache
    ):
        monkeypatch.setattr(
            vacancy_system, "MISS_CHUNK_BYTES", _pairs_budget(tet_wide, 3)
        )
        engine = _with_row_cache(
            _serial(tet_wide, nnp_wide), row_cache, TINY_ENTRIES
        )
        assert _serial_identity(engine) == SERIAL_NNP_WIDE
        assert max(chunk_sizes["pairs"]) == 3

    def test_shared_campaign(
        self, monkeypatch, chunk_sizes, tet_small, nnp_small
    ):
        monkeypatch.setattr(
            vacancy_system, "MISS_CHUNK_BYTES", _pairs_budget(tet_small, 2)
        )
        results = ReplicaCampaign(
            [ReplicaSpec("m", seed=0, n_steps=N_STEPS)],
            lambda spec: _serial(tet_small, nnp_small),
        ).run()
        got = (results[0].digest, float(results[0].time).hex())
        assert got == SERIAL_NNP
        # The shared refresh runs the same two-pair chunks as a solo one.
        assert max(chunk_sizes["pairs"]) == 2
        assert len(chunk_sizes["pairs"]) > N_STEPS

    def test_parallel_nnp(
        self, monkeypatch, chunk_sizes, tet_small, nnp_small
    ):
        monkeypatch.setattr(
            vacancy_system, "MISS_CHUNK_BYTES", _pairs_budget(tet_small, 2)
        )
        sim = _parallel(tet_small, nnp_small)
        assert _parallel_identity(sim) == PARALLEL_NNP
        stats = sim.world.stats
        assert (stats.messages_sent, stats.bytes_sent) == PARALLEL_COMM["nnp"]
        assert max(chunk_sizes["pairs"]) == 2


class TestBoundedColdRefresh:
    def test_traced_peak_within_the_modelled_transient(
        self, monkeypatch, tet_wide, nnp_wide
    ):
        """A cold refresh peaks at one chunk, not at the whole batch.

        35 vacancies on the 4-shell TET are 43k rows: unchunked, about
        3 MiB of scratch (the model's per-row figure, every row a miss,
        says 47 MiB).  Under
        a 1 MiB budget the traced peak above the refresh's resident result
        must stay within the model's ``miss_transient`` plus a slack of
        16 B per row of the whole batch: the refresh's own O(batch)
        outputs, the ``(P, 9)`` float64 energies ``evaluate_rows`` returns
        and the float64 row-energy matrix before the cache adopts it.
        """
        budget = 2**20
        monkeypatch.setattr(vacancy_system, "MISS_CHUNK_BYTES", budget)
        lattice = LatticeState((12, 12, 12))
        lattice.randomize_alloy(np.random.default_rng(5), 0.05, 0.01)
        engine = TensorKMCEngine(
            lattice, nnp_wide, tet_wide, temperature=900.0,
            rng=np.random.default_rng(6),
        )
        n_vacancies = len(lattice.vacancy_ids)
        rows = n_vacancies * 9 * tet_wide.n_region
        assert rows * miss_row_bytes(tet_wide) >= 4 * budget
        model = tensorkmc_memory_model(lattice.n_sites, n_vacancies, tet_wide)
        assert model["miss_transient"] <= budget
        tracemalloc.start()
        try:
            engine.kernel.refresh()
            resident, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert engine.kernel.total > 0.0
        slack = 16 * rows
        assert peak - resident <= model["miss_transient"] + slack
