"""Regression tests for the run-loop hardening fixes.

Three long-standing sharp edges in the run loops, each with the test that
failed before its fix:

* :meth:`SerialAKMCBase.run` used to propagate :class:`NoMovesError` out of
  any frozen system, killing the whole process even when "no moves left" is
  a perfectly good terminal state; a frozen system now ends the run
  cleanly and ``run`` returns the executed-event count (``step`` still
  raises).
* :func:`run_resilient` used to overwrite whatever file sat at
  ``checkpoint_path`` with its entry checkpoint — including an unrelated
  archive or a *later* checkpoint of the same campaign; it now validates
  kind/shape/grid/cycle-count compatibility and refuses with a clear error.
* :meth:`SerialAKMCBase.summary` (and the parallel driver's) used to blind
  ``dict.update`` three namespaces, so a counter name drifting between the
  kernel and the engine silently overwrote data; merges now raise on any
  key collision.
"""

import numpy as np
import pytest

from repro.constants import VACANCY
from repro.core.engine import NoMovesError, TensorKMCEngine
from repro.core.profiling import PHASES, merge_disjoint
from repro.io.checkpoint import save_checkpoint, save_parallel_checkpoint
from repro.lattice import LatticeState
from repro.parallel import SublatticeKMC, run_resilient


def _engine(lattice, tet, pot, seed=7):
    return TensorKMCEngine(
        lattice, pot, tet, temperature=900.0, rng=np.random.default_rng(seed)
    )


def _frozen_engine(tet, pot):
    """A system with zero total propensity: every site is a vacancy, so no
    direction has a migrating atom and the rate tree is empty from step 0."""
    lattice = LatticeState((4, 4, 4))
    lattice.occupancy[:] = VACANCY
    return _engine(lattice, tet, pot)


def _parallel_sim(tet, pot, shape=(16, 16, 16), n_ranks=4, seed=5, lattice_seed=3):
    lattice = LatticeState(shape)
    lattice.randomize_alloy(np.random.default_rng(lattice_seed), 0.05, 0.003)
    return SublatticeKMC(
        lattice, pot, tet, n_ranks=n_ranks, temperature=900.0,
        t_stop=2e-10, seed=seed,
    )


# ----------------------------------------------------------------------
# S1: frozen systems are results, not crashes
# ----------------------------------------------------------------------
class TestNoMovesPolicy:
    def test_frozen_system_raises_by_default(self, tet_small, eam_small):
        """A single step of a frozen system has nothing to do: it raises."""
        engine = _frozen_engine(tet_small, eam_small)
        with pytest.raises(NoMovesError):
            engine.step()

    def test_stop_policy_returns_executed_count(self, tet_small, eam_small):
        # Failed before the fix: NoMovesError escaped run() to the caller
        # even for a legitimately frozen system.
        engine = _frozen_engine(tet_small, eam_small)
        assert engine.run(n_steps=5) == 0
        assert engine.step_count == 0

    def test_stop_policy_mid_horizon(
        self, tet_small, eam_small, alloy_lattice, monkeypatch
    ):
        # A system that freezes after a few events must return the events
        # it did execute, not lose them to an exception.
        engine = _engine(alloy_lattice, tet_small, eam_small)
        real_step = engine.step
        calls = {"n": 0}

        def step():
            if calls["n"] >= 3:
                raise NoMovesError("frozen mid-run")
            calls["n"] += 1
            return real_step()

        monkeypatch.setattr(engine, "step", step)
        assert engine.run(n_steps=10) == 3

    def test_unknown_policy_rejected(self, tet_small, eam_small, alloy_lattice):
        """Stopping is the one policy: ``run`` takes no policy argument."""
        engine = _engine(alloy_lattice, tet_small, eam_small)
        with pytest.raises(TypeError, match="on_no_moves"):
            engine.run(n_steps=1, on_no_moves="raise")


# ----------------------------------------------------------------------
# S2: run_resilient must not clobber incompatible archives
# ----------------------------------------------------------------------
class TestCheckpointClobberGuard:
    def test_refuses_serial_archive(self, tmp_path, tet_small, eam_small):
        # Failed before the fix: the entry checkpoint overwrote the serial
        # archive without looking at it.
        path = str(tmp_path / "ck.npz")
        lattice = LatticeState((8, 8, 8))
        lattice.randomize_alloy(np.random.default_rng(1), 0.05, 0.003)
        save_checkpoint(path, _engine(lattice, tet_small, eam_small))
        sim = _parallel_sim(tet_small, eam_small)
        with pytest.raises(ValueError, match="serial"):
            run_resilient(sim, 1, path, eam_small, tet=tet_small)

    def test_refuses_unreadable_file(self, tmp_path, tet_small, eam_small):
        path = tmp_path / "ck.npz"
        path.write_text("definitely not an npz archive")
        sim = _parallel_sim(tet_small, eam_small)
        with pytest.raises(ValueError, match="not a readable"):
            run_resilient(sim, 1, str(path), eam_small, tet=tet_small)

    def test_refuses_shape_mismatch(self, tmp_path, tet_small, eam_small):
        path = str(tmp_path / "ck.npz")
        other = _parallel_sim(tet_small, eam_small, shape=(16, 16, 32))
        save_parallel_checkpoint(path, other)
        sim = _parallel_sim(tet_small, eam_small)
        with pytest.raises(ValueError, match="shape"):
            run_resilient(sim, 1, path, eam_small, tet=tet_small)

    def test_refuses_grid_mismatch(self, tmp_path, tet_small, eam_small):
        path = str(tmp_path / "ck.npz")
        other = _parallel_sim(tet_small, eam_small, n_ranks=2)
        save_parallel_checkpoint(path, other)
        sim = _parallel_sim(tet_small, eam_small, n_ranks=4)
        with pytest.raises(ValueError, match="grid"):
            run_resilient(sim, 1, path, eam_small, tet=tet_small)

    def test_refuses_archive_ahead_of_sim(self, tmp_path, tet_small, eam_small):
        path = str(tmp_path / "ck.npz")
        ahead = _parallel_sim(tet_small, eam_small)
        ahead.cycle()
        ahead.cycle()
        save_parallel_checkpoint(path, ahead)
        fresh = _parallel_sim(tet_small, eam_small)
        with pytest.raises(ValueError, match="ahead"):
            run_resilient(fresh, 1, path, eam_small, tet=tet_small)

    def test_accepts_compatible_earlier_archive(
        self, tmp_path, tet_small, eam_small
    ):
        path = str(tmp_path / "ck.npz")
        sim = _parallel_sim(tet_small, eam_small)
        save_parallel_checkpoint(path, sim)
        sim.cycle()
        sim, recoveries = run_resilient(sim, 1, path, eam_small, tet=tet_small)
        assert recoveries == 0
        assert len(sim.cycles) == 2

    def test_fresh_path_still_works(self, tmp_path, tet_small, eam_small):
        sim = _parallel_sim(tet_small, eam_small)
        sim, recoveries = run_resilient(
            sim, 1, str(tmp_path / "new.npz"), eam_small, tet=tet_small
        )
        assert recoveries == 0
        assert len(sim.cycles) == 1


# ----------------------------------------------------------------------
# S3: summary namespaces must stay disjoint
# ----------------------------------------------------------------------
class TestSummaryCollisions:
    def test_merge_disjoint_raises_and_names_key(self):
        with pytest.raises(ValueError, match="'steps'"):
            merge_disjoint({"steps": 1}, {"steps": 2})

    def test_merge_disjoint_merges_disjoint(self):
        assert merge_disjoint({"a": 1}, {"b": 2}, {"c": 3}) == {
            "a": 1, "b": 2, "c": 3
        }

    def test_engine_summary_collision_detected(
        self, tet_small, eam_small, alloy_lattice
    ):
        # Failed before the fix: a kernel counter named like an engine field
        # was silently overwritten by dict.update.
        engine = _engine(alloy_lattice, tet_small, eam_small)
        real = engine.kernel.summary()
        engine.kernel.summary = lambda: {**real, "steps": -1}
        with pytest.raises(ValueError, match="'steps'"):
            engine.summary()

    def test_engine_summary_contains_all_namespaces(
        self, tet_small, eam_small, alloy_lattice
    ):
        engine = _engine(alloy_lattice, tet_small, eam_small)
        engine.run(n_steps=3)
        out = engine.summary()
        assert out["steps"] == 3
        assert "cache_hits" in out  # kernel counters
        assert "rebuild_seconds" in out  # profiler phases

    def test_parallel_summary_contains_all_namespaces(
        self, tet_small, eam_small
    ):
        sim = _parallel_sim(tet_small, eam_small)
        sim.cycle()
        out = sim.summary()
        assert out["cycles"] == 1
        for name in PHASES:
            assert f"{name}_seconds" in out
