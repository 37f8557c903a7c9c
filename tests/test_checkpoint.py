"""Checkpoint/restart and event-log replay: bit-exact continuation."""

import numpy as np
import pytest

from repro.constants import FE, VACANCY
from repro.core import TensorKMCEngine
from repro.io import (
    load_checkpoint,
    load_events,
    replay_events,
    save_checkpoint,
    save_events,
)
from repro.lattice import LatticeState


def _engine(tet, pot, seed=5, **kw):
    lattice = LatticeState((8, 8, 8))
    lattice.randomize_alloy(np.random.default_rng(11), 0.05, 0.003)
    return TensorKMCEngine(
        lattice, pot, tet, temperature=900.0,
        rng=np.random.default_rng(seed), **kw,
    )


def _archive_with_mode(tmp_path, engine, field, value):
    """A checkpoint of ``engine`` whose mode ``field`` reads ``value``
    (``field=None``: no mode field at all)."""
    path = str(tmp_path / "ck.npz")
    save_checkpoint(path, engine)
    data = dict(np.load(path, allow_pickle=False))
    for name in ("propensity", "evaluation", "batching", "row_cache"):
        data.pop(name, None)
    if field is not None:
        data[field] = np.array([value])
    np.savez_compressed(path, **data)
    return path


class TestCheckpoint:
    def test_restart_continues_bit_exactly(self, tmp_path, tet_small, eam_small):
        reference = _engine(tet_small, eam_small)
        reference.run(n_steps=30)
        path = str(tmp_path / "ck.npz")

        interrupted = _engine(tet_small, eam_small)
        interrupted.run(n_steps=15)
        save_checkpoint(path, interrupted)
        resumed = load_checkpoint(path, eam_small, tet=tet_small)
        resumed.run(n_steps=15)

        assert np.array_equal(
            resumed.lattice.occupancy, reference.lattice.occupancy
        )
        assert resumed.time == reference.time
        assert resumed.step_count == reference.step_count

    def test_checkpoint_restores_metadata(self, tmp_path, tet_small, eam_small):
        engine = _engine(tet_small, eam_small)
        engine.run(n_steps=5)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, engine)
        with np.load(path, allow_pickle=False) as data:
            assert not {"propensity", "evaluation", "batching", "row_cache",
                        "row_cache_budget"} & set(data.files)
        resumed = load_checkpoint(path, eam_small, tet=tet_small)
        assert resumed.rate_model.temperature == 900.0
        assert resumed.cache.sites == engine.cache.sites

    def test_tet_rebuilt_from_stored_cutoff(self, tmp_path, tet_small, eam_small):
        engine = _engine(tet_small, eam_small)
        engine.run(n_steps=3)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, engine)
        resumed = load_checkpoint(path, eam_small)  # no tet passed
        assert resumed.tet.rcut == tet_small.rcut

    @pytest.mark.parametrize(
        "field,value",
        [
            (None, None),
            ("propensity", "tree"),
            ("evaluation", "full"),
            ("batching", "auto"),
            ("batching", "batched"),
            ("batching", "scalar"),
            ("row_cache", "auto"),
            ("row_cache", "on"),
            ("row_cache", "off"),
        ],
    )
    def test_archived_modes_resume_bit_exactly(
        self, tmp_path, tet_small, eam_small, field, value
    ):
        """Archives written while the engines had mode knobs carry the mode
        fields; every mode that ran the same trajectory as the one path left
        resumes on it bit-exactly."""
        reference = _engine(tet_small, eam_small)
        reference.run(n_steps=30)
        engine = _engine(tet_small, eam_small)
        engine.run(n_steps=15)
        path = _archive_with_mode(tmp_path, engine, field, value)
        resumed = load_checkpoint(path, eam_small, tet=tet_small)
        resumed.run(n_steps=15)
        assert np.array_equal(
            resumed.lattice.occupancy, reference.lattice.occupancy
        )
        assert resumed.time == reference.time

    @pytest.mark.parametrize(
        "field,value",
        [("propensity", "linear"), ("evaluation", "delta"),
         ("row_cache", "maybe")],
    )
    def test_non_resumable_archived_modes_rejected(
        self, tmp_path, tet_small, eam_small, field, value
    ):
        """A linear store and delta evaluation summed in another order than
        the one path left, so their archives cannot continue bit-exactly —
        loading one must fail loudly instead of silently diverging.  A
        row-cache mode the engines never had marks a foreign archive."""
        engine = _engine(tet_small, eam_small)
        engine.run(n_steps=5)
        path = _archive_with_mode(tmp_path, engine, field, value)
        with pytest.raises(ValueError, match=f"{field}='{value}'"):
            load_checkpoint(path, eam_small, tet=tet_small)

    def test_checkpoint_after_slot_churn(self, tmp_path, tet_small, eam_small):
        """Regression: annihilating a vacancy parks its kernel slot (None in
        cache.sites), which used to crash save_checkpoint; the free-list
        recycling order is also trajectory state and must round-trip."""
        engine = _engine(tet_small, eam_small)
        engine.run(n_steps=10)
        lattice = engine.lattice
        # Annihilate two vacancies, then create one elsewhere (e.g. a sink /
        # source process outside the hop catalogue): the creation pops the
        # most recently parked slot, leaving one slot parked.
        touched = []
        for slot in engine.kernel.live_slots()[:2]:
            gone = int(engine.kernel.key_of(slot))
            lattice.occupancy[gone] = FE
            engine.kernel.remove(engine.kernel.slot_of(gone))
            touched.append(gone)
        born = int(np.flatnonzero(lattice.occupancy == FE)[17])
        lattice.occupancy[born] = VACANCY
        engine.kernel.add(born)
        touched.append(born)
        engine.kernel.invalidate_near(
            lattice.half_coords(np.asarray(touched, dtype=np.int64))
        )
        assert None in engine.cache.sites  # a parked slot survives the churn
        assert len(engine.kernel.cache.free_slots) == 1
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, engine)  # used to raise TypeError
        resumed = load_checkpoint(path, eam_small, tet=tet_small)
        assert resumed.cache.sites == engine.cache.sites
        assert resumed.kernel.cache.free_slots == engine.kernel.cache.free_slots
        engine.run(n_steps=25)
        resumed.run(n_steps=25)
        assert np.array_equal(
            resumed.lattice.occupancy, engine.lattice.occupancy
        )
        assert resumed.time == engine.time

    def test_corrupted_occupancy_detected(self, tmp_path, tet_small, eam_small):
        engine = _engine(tet_small, eam_small)
        engine.run(n_steps=3)
        path = str(tmp_path / "ck.npz")
        save_checkpoint(path, engine)
        data = dict(np.load(path, allow_pickle=False))
        occ = data["occupancy"].copy()
        occ[occ == 2] = 0  # erase the vacancies
        data["occupancy"] = occ
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError):
            load_checkpoint(path, eam_small, tet=tet_small)


class TestEventLog:
    def test_save_load_roundtrip(self, tmp_path, tet_small, eam_small):
        engine = _engine(tet_small, eam_small)
        engine.record_events = True
        engine.run(n_steps=20)
        path = str(tmp_path / "events.npz")
        save_events(path, engine.events)
        loaded = load_events(path)
        assert loaded == engine.events

    def test_replay_reaches_final_state(self, tmp_path, tet_small, eam_small):
        engine = _engine(tet_small, eam_small)
        initial = engine.lattice.copy()
        engine.record_events = True
        engine.run(n_steps=40)
        replayed = replay_events(initial, engine.events)
        assert np.array_equal(replayed.occupancy, engine.lattice.occupancy)
        assert not np.array_equal(initial.occupancy, engine.lattice.occupancy)

    def test_replay_detects_wrong_initial_state(self, tet_small, eam_small):
        engine = _engine(tet_small, eam_small)
        engine.record_events = True
        engine.run(n_steps=10)
        wrong = LatticeState((8, 8, 8))  # pure Fe, no vacancies
        with pytest.raises(ValueError):
            replay_events(wrong, engine.events)

    def test_empty_log(self, tmp_path):
        path = str(tmp_path / "empty.npz")
        save_events(path, [])
        assert load_events(path) == []
