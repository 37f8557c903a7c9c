"""Parallel checkpoint/restart: bit-exact continuation of a sublattice world."""

import numpy as np
import pytest

from repro.io import (
    checkpoint_kind,
    load_checkpoint,
    load_parallel_checkpoint,
    save_checkpoint,
    save_parallel_checkpoint,
)
from repro.core import TensorKMCEngine
from repro.lattice import LatticeState
from repro.parallel import FaultEvent, FaultPlan, SublatticeKMC, run_resilient


def _alloy(seed=3, vac=0.003, shape=(16, 16, 16)):
    lat = LatticeState(shape)
    lat.randomize_alloy(np.random.default_rng(seed), 0.05, vac)
    return lat


def _sim(tet, pot, seed=5, n_ranks=4, lattice=None, **kw):
    return SublatticeKMC(
        _alloy() if lattice is None else lattice, pot, tet,
        n_ranks=n_ranks, temperature=900.0, t_stop=2e-10, seed=seed, **kw,
    )


class TestBitExactResume:
    def test_kill_mid_campaign_and_resume(self, tmp_path, tet_small, eam_small):
        """The tentpole invariant: interrupt at cycle 6, resume, and the
        trajectory (occupancy, per-cycle event log, clock, cursor) is
        bit-identical to an uninterrupted 12-cycle run."""
        reference = _sim(tet_small, eam_small)
        reference.run(12)

        interrupted = _sim(tet_small, eam_small)
        interrupted.run(6)
        path = str(tmp_path / "pck.npz")
        save_parallel_checkpoint(path, interrupted)
        del interrupted  # the "killed" campaign

        resumed = load_parallel_checkpoint(path, eam_small, tet=tet_small)
        resumed.run(6)

        assert np.array_equal(
            resumed.gather_global().occupancy,
            reference.gather_global().occupancy,
        )
        assert [c.events for c in resumed.cycles] == [
            c.events for c in reference.cycles
        ]
        assert [c.sector for c in resumed.cycles] == [
            c.sector for c in reference.cycles
        ]
        assert resumed.time == reference.time
        assert resumed.sector_index == reference.sector_index
        for a, b in zip(resumed.ranks, reference.ranks):
            assert a.events == b.events
            assert a.rejected == b.rejected

    def test_rank_rng_streams_restored(self, tmp_path, tet_small, eam_small):
        sim = _sim(tet_small, eam_small)
        sim.run(5)
        path = str(tmp_path / "pck.npz")
        save_parallel_checkpoint(path, sim)
        resumed = load_parallel_checkpoint(path, eam_small, tet=tet_small)
        for a, b in zip(resumed.ranks, sim.ranks):
            assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_ghosts_consistent_after_load(self, tmp_path, tet_small, eam_small):
        sim = _sim(tet_small, eam_small)
        sim.run(4)
        path = str(tmp_path / "pck.npz")
        save_parallel_checkpoint(path, sim)
        resumed = load_parallel_checkpoint(path, eam_small, tet=tet_small)
        assert resumed.check_ghost_consistency()

    def test_world_stats_and_history_restored(self, tmp_path, tet_small, eam_small):
        sim = _sim(tet_small, eam_small)
        sim.run(7)
        path = str(tmp_path / "pck.npz")
        save_parallel_checkpoint(path, sim)
        resumed = load_parallel_checkpoint(path, eam_small, tet=tet_small)
        assert resumed.world.stats == sim.world.stats
        assert len(resumed.cycles) == 7
        assert resumed.cycles == sim.cycles
        assert resumed.total_events == sim.total_events

    def test_save_is_idempotent(self, tmp_path, tet_small, eam_small):
        """save -> load -> save produces a byte-equal set of arrays."""
        sim = _sim(tet_small, eam_small)
        sim.run(3)
        p1 = str(tmp_path / "a.npz")
        p2 = str(tmp_path / "b.npz")
        save_parallel_checkpoint(p1, sim)
        resumed = load_parallel_checkpoint(p1, eam_small, tet=tet_small)
        save_parallel_checkpoint(p2, resumed)
        with np.load(p1) as d1, np.load(p2) as d2:
            assert sorted(d1.files) == sorted(d2.files)
            for name in d1.files:
                assert np.array_equal(d1[name], d2[name]), name

    def test_resume_from_resumed(self, tmp_path, tet_small, eam_small):
        """Chained restarts stay on the reference trajectory."""
        reference = _sim(tet_small, eam_small)
        reference.run(9)
        sim = _sim(tet_small, eam_small)
        path = str(tmp_path / "pck.npz")
        for leg in (3, 3, 3):
            sim.run(leg)
            save_parallel_checkpoint(path, sim)
            sim = load_parallel_checkpoint(path, eam_small, tet=tet_small)
        assert np.array_equal(
            sim.gather_global().occupancy,
            reference.gather_global().occupancy,
        )
        assert sim.time == reference.time


class TestNNPBatchedResume:
    """Batched NNP campaigns must checkpoint/resume bit-exactly.

    Regression: with the deterministic tiled-GEMM kernel the NNP takes
    the batched miss path, and after a resume (or
    a rollback-and-replay recovery) the set of cache misses — hence the
    batch shapes — differs from the uninterrupted run.  Row invariance of
    the kernel is exactly what makes that irrelevant; these tests pin it.
    """

    def _nnp_sim(self, tet, pot, **kw):
        return _sim(tet, pot, lattice=_alloy(seed=7, vac=0.003), **kw)

    def test_batched_nnp_resume_is_bit_exact(self, tmp_path, tet_small, nnp_small):
        reference = self._nnp_sim(tet_small, nnp_small)
        reference.run(8)
        assert reference.summary()["rate_batches"] >= 1  # really batched

        interrupted = self._nnp_sim(tet_small, nnp_small)
        interrupted.run(4)
        path = str(tmp_path / "nnp.npz")
        save_parallel_checkpoint(path, interrupted)
        del interrupted

        resumed = load_parallel_checkpoint(path, nnp_small, tet=tet_small)
        resumed.run(4)
        assert np.array_equal(
            resumed.gather_global().occupancy,
            reference.gather_global().occupancy,
        )
        assert [c.events for c in resumed.cycles] == [
            c.events for c in reference.cycles
        ]
        assert resumed.time == reference.time

    def test_batched_nnp_kill_and_run_resilient(
        self, tmp_path, tet_small, nnp_small
    ):
        """Kill a rank mid-campaign; the recovered batched-NNP trajectory is
        bit-identical to the fault-free run."""
        reference = self._nnp_sim(tet_small, nnp_small)
        reference.run(8)

        plan = FaultPlan(events=[FaultEvent("kill", cycle=4, rank=0)])
        sim = self._nnp_sim(tet_small, nnp_small, fault_plan=plan)
        path = str(tmp_path / "nnp_resilient.npz")
        sim, recoveries = run_resilient(
            sim, 8, path, nnp_small, tet=tet_small, checkpoint_every=3
        )
        assert recoveries == 1
        assert sim.summary()["rate_batches"] >= 1
        assert np.array_equal(
            sim.gather_global().occupancy,
            reference.gather_global().occupancy,
        )
        assert [c.events for c in sim.cycles] == [
            c.events for c in reference.cycles
        ]
        assert sim.time == reference.time


class TestArchiveFormats:
    def test_parent_format_archive_resumes_bit_exactly(
        self, tmp_path, tet_small, eam_small
    ):
        """Older archives carry one more trailing ``cycles`` column (a
        retired per-cycle timing); the loader ignores it and the
        continuation stays bit-exact."""
        reference = _sim(tet_small, eam_small)
        reference.run(12)

        interrupted = _sim(tet_small, eam_small)
        interrupted.run(6)
        path = str(tmp_path / "parent.npz")
        save_parallel_checkpoint(path, interrupted)
        data = dict(np.load(path, allow_pickle=False))
        cycles = data["cycles"]
        data["cycles"] = np.hstack([cycles, np.zeros((len(cycles), 1))])
        assert data["cycles"].shape[1] == 23  # the older history width
        np.savez_compressed(path, **data)

        resumed = load_parallel_checkpoint(path, eam_small, tet=tet_small)
        resumed.run(6)
        assert np.array_equal(
            resumed.gather_global().occupancy,
            reference.gather_global().occupancy,
        )
        assert resumed.time == reference.time
        assert [c.events for c in resumed.cycles] == [
            c.events for c in reference.cycles
        ]


class TestHostileArchives:
    """Damaged or incomplete archives end in a ``ValueError`` that names
    the file (and the missing field), never a raw zip or key error."""

    @pytest.fixture
    def archives(self, tmp_path, tet_small, eam_small):
        par = str(tmp_path / "par.npz")
        sim = _sim(tet_small, eam_small)
        sim.run(2)
        save_parallel_checkpoint(par, sim)
        ser = str(tmp_path / "ser.npz")
        lattice = LatticeState((8, 8, 8))
        lattice.randomize_alloy(np.random.default_rng(1), 0.05, 0.003)
        engine = TensorKMCEngine(
            lattice, eam_small, tet_small, temperature=900.0,
            rng=np.random.default_rng(2),
        )
        engine.run(n_steps=3)
        save_checkpoint(ser, engine)
        return {"parallel": par, "serial": ser}

    def _load(self, kind, path, tet, pot):
        loader = {"parallel": load_parallel_checkpoint,
                  "serial": load_checkpoint}[kind]
        return loader(path, pot, tet=tet)

    @pytest.mark.parametrize("kind", ("serial", "parallel"))
    def test_truncated_archive(self, archives, kind, tet_small, eam_small):
        path = archives[kind]
        with open(path, "rb") as fh:
            raw = fh.read()
        with open(path, "wb") as fh:
            fh.write(raw[: len(raw) // 2])
        with pytest.raises(ValueError, match="not a readable checkpoint") as exc:
            self._load(kind, path, tet_small, eam_small)
        assert path in str(exc.value)

    @pytest.mark.parametrize(
        "kind,field", (("serial", "rng_state"), ("parallel", "rank2_rng"))
    )
    def test_missing_field(self, archives, kind, field, tet_small, eam_small):
        path = archives[kind]
        data = dict(np.load(path, allow_pickle=False))
        del data[field]
        np.savez(path, **data)
        match = f"missing checkpoint field '{field}'"
        with pytest.raises(ValueError, match=match) as exc:
            self._load(kind, path, tet_small, eam_small)
        assert path in str(exc.value)


class TestKindDetection:
    def test_kind_fields(self, tmp_path, tet_small, eam_small):
        par = str(tmp_path / "par.npz")
        ser = str(tmp_path / "ser.npz")
        sim = _sim(tet_small, eam_small)
        sim.run(2)
        save_parallel_checkpoint(par, sim)
        lattice = LatticeState((8, 8, 8))
        lattice.randomize_alloy(np.random.default_rng(1), 0.05, 0.003)
        engine = TensorKMCEngine(
            lattice, eam_small, tet_small, temperature=900.0,
            rng=np.random.default_rng(2),
        )
        engine.run(n_steps=3)
        save_checkpoint(ser, engine)
        assert checkpoint_kind(par) == "parallel"
        assert checkpoint_kind(ser) == "serial"

    def test_wrong_loader_rejected(self, tmp_path, tet_small, eam_small):
        par = str(tmp_path / "par.npz")
        ser = str(tmp_path / "ser.npz")
        sim = _sim(tet_small, eam_small)
        sim.run(2)
        save_parallel_checkpoint(par, sim)
        lattice = LatticeState((8, 8, 8))
        lattice.randomize_alloy(np.random.default_rng(1), 0.05, 0.003)
        engine = TensorKMCEngine(
            lattice, eam_small, tet_small, temperature=900.0,
            rng=np.random.default_rng(2),
        )
        save_checkpoint(ser, engine)
        with pytest.raises(ValueError, match="load_parallel_checkpoint"):
            load_checkpoint(par, eam_small, tet=tet_small)
        with pytest.raises(ValueError, match="load_checkpoint"):
            load_parallel_checkpoint(ser, eam_small, tet=tet_small)


class TestValidation:
    def test_corrupted_rank_occupancy_detected(self, tmp_path, tet_small, eam_small):
        sim = _sim(tet_small, eam_small)
        sim.run(2)
        path = str(tmp_path / "pck.npz")
        save_parallel_checkpoint(path, sim)
        data = dict(np.load(path, allow_pickle=False))
        occ = data["rank0_occupancy"].copy()
        occ[occ == sim.ranks[0].vacancy_code] = 0  # erase rank 0's vacancies
        data["rank0_occupancy"] = occ
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="slot registry"):
            load_parallel_checkpoint(path, eam_small, tet=tet_small)

    def test_wrong_window_shape_detected(self, tmp_path, tet_small, eam_small):
        sim = _sim(tet_small, eam_small)
        sim.run(2)
        path = str(tmp_path / "pck.npz")
        save_parallel_checkpoint(path, sim)
        data = dict(np.load(path, allow_pickle=False))
        data["rank0_occupancy"] = data["rank0_occupancy"][:, :-1]
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="window shape"):
            load_parallel_checkpoint(path, eam_small, tet=tet_small)
