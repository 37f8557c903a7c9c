"""Engine checkpoint / restart with bit-exact continuation.

Mesoscale AKMC campaigns run for days; a checkpoint stores everything needed
to resume *exactly* — occupancy, simulated clock, step counter, and the
random generator's internal state — so a restarted run produces the same
trajectory as an uninterrupted one (asserted in the tests).  Potentials and
TET tables are deterministic functions of their inputs and are reconstructed
by the caller, not serialised.

Two archive kinds share the ``.npz`` container (a ``kind`` field tells them
apart; archives written before the field existed are serial):

* **serial** — one :class:`~repro.core.engine.TensorKMCEngine`: occupancy,
  clock, RNG state, and the kernel slot registry *including* parked slots
  and the free-list stack order (after vacancy annihilation/creation the
  recycling order is trajectory-determining state);
* **parallel** — one :class:`~repro.parallel.engine.SublatticeKMC` world at
  a cycle boundary: the gathered global occupancy plus, per rank, the full
  padded window (local + ghost regions), the rank's RNG stream, its kernel
  slot order and free list, and its event counters — together with the
  sector cursor, accumulated :class:`~repro.parallel.comm.CommStats`, and
  the per-cycle statistics history.  Restore rebuilds a world whose
  continuation is bit-identical to the uninterrupted run.
"""

from __future__ import annotations

import json
import zipfile
import zlib

import numpy as np

from ..core.engine import SerialAKMCBase, TensorKMCEngine
from ..core.tet import TripleEncoding
from ..lattice.occupancy import LatticeState
from ..potentials.base import CountsPotential

__all__ = [
    "save_checkpoint",
    "load_checkpoint",
    "save_parallel_checkpoint",
    "load_parallel_checkpoint",
    "checkpoint_kind",
]

#: Sentinel for a parked (free) slot in serialised registries.
_FREE_SLOT = -1

#: Mode fields older archives carry, with the values that resume
#: bit-exactly on the engines' single event path.  A linear propensity store
#: sums in another order than the tree, and delta evaluation sums its
#: per-direction energies in another order than the full one, so archives
#: written under those cannot continue their trajectory bit for bit.  The
#: row cache never changed a trajectory, so every mode it had resumes (its
#: old ``row_cache_budget`` field is ignored: the budget is the default).
_RETIRED_MODES = {
    "propensity": ("tree",),
    "evaluation": ("full",),
    "batching": ("auto", "batched", "scalar"),
    "row_cache": ("auto", "on", "off"),
}


class _Archive(dict):
    """A checkpoint's arrays; a missing field raises ``ValueError`` naming it."""

    def __init__(self, path: str, arrays: dict) -> None:
        super().__init__(arrays)
        self.path = path
        self.files = list(arrays)

    def __missing__(self, name: str):
        raise ValueError(f"{self.path} is missing checkpoint field {name!r}")


def _read_archive(path: str) -> _Archive:
    """Read every field of a checkpoint; a damaged file raises ``ValueError``."""
    try:
        with np.load(path, allow_pickle=False) as data:
            return _Archive(path, {name: data[name] for name in data.files})
    # TypeError: a bare ``.npy`` array is not an archive.
    except (zipfile.BadZipFile, zlib.error, EOFError, ValueError, TypeError) as exc:
        raise ValueError(
            f"{path} is not a readable checkpoint archive ({exc})"
        ) from exc


def _check_retired_modes(data: _Archive) -> None:
    """Raise ``ValueError`` naming a mode field that cannot resume."""
    for field, resumable in _RETIRED_MODES.items():
        value = str(data[field][0]) if field in data.files else resumable[0]
        if value not in resumable:
            raise ValueError(
                f"{data.path} was written with {field}={value!r}, which "
                f"cannot resume bit-exactly (resumable: "
                f"{', '.join(resumable)})"
            )


def checkpoint_kind(path: str) -> str:
    """``"serial"`` or ``"parallel"`` (archives predating the field: serial)."""
    data = _read_archive(path)
    return str(data["kind"][0]) if "kind" in data.files else "serial"


# ----------------------------------------------------------------------
# Serial engines
# ----------------------------------------------------------------------
def save_checkpoint(path: str, engine: SerialAKMCBase) -> None:
    """Serialise a serial engine's full dynamic state to ``path`` (.npz)."""
    rng_state = json.dumps(engine.rng.bit_generator.state)
    # Parked slots (freed by vacancy annihilation) serialise as -1; the
    # free-list stack order is stored separately so recycling resumes in
    # the same order.
    slots = np.array(
        [_FREE_SLOT if s is None else int(s) for s in engine.cache.sites],
        dtype=np.int64,
    )
    np.savez_compressed(
        path,
        kind=np.array(["serial"]),
        occupancy=engine.lattice.occupancy,
        shape=np.array(engine.lattice.shape, dtype=np.int64),
        a=np.array([engine.lattice.a]),
        time=np.array([engine.time]),
        step_count=np.array([engine.step_count]),
        temperature=np.array([engine.rate_model.temperature]),
        rcut=np.array([engine.tet.rcut]),
        rng_state=np.array([rng_state]),
        vacancy_slots=slots,
        free_order=np.array(engine.kernel.cache.free_slots, dtype=np.int64),
        # Row-energy cache: the monotonic counters persist; the cached
        # *contents* deliberately do not — a resumed run rebuilds the memo
        # from cold, and because every hit is bitwise equal to a fresh
        # evaluation the continuation is bit-identical either way.
        row_cache_counters=_row_cache_counters(engine.row_cache),
    )


def _row_cache_counters(cache) -> np.ndarray:
    if cache is None:
        return np.zeros(3, dtype=np.int64)
    return np.array(
        [cache.hits, cache.misses, cache.evictions], dtype=np.int64
    )


def _restore_row_cache(cache, data) -> None:
    """Resume a cold cache's cumulative counters from ``data``."""
    if "row_cache_counters" in data.files:
        cache.restore_counters(*(int(v) for v in data["row_cache_counters"]))


def load_checkpoint(
    path: str,
    potential: CountsPotential,
    tet: TripleEncoding | None = None,
) -> TensorKMCEngine:
    """Rebuild a :class:`TensorKMCEngine` that continues bit-exactly.

    Parameters
    ----------
    potential:
        The potential used by the original run (must be identical for exact
        continuation; it is not stored in the checkpoint).
    tet:
        Optional pre-built TET; rebuilt from the stored cutoff otherwise.
    """
    data = _read_archive(path)
    if "kind" in data.files and str(data["kind"][0]) != "serial":
        raise ValueError(
            f"{path} holds a {str(data['kind'][0])!r} checkpoint; use "
            "load_parallel_checkpoint"
        )
    _check_retired_modes(data)
    lattice = LatticeState(tuple(int(v) for v in data["shape"]), a=float(data["a"][0]))
    lattice.occupancy = data["occupancy"].astype(np.uint8)
    if tet is None:
        tet = TripleEncoding(rcut=float(data["rcut"][0]), a=lattice.a)

    rng = np.random.default_rng()
    rng.bit_generator.state = json.loads(str(data["rng_state"][0]))

    engine = TensorKMCEngine(
        lattice,
        potential,
        tet,
        temperature=float(data["temperature"][0]),
        rng=rng,
    )
    _restore_row_cache(engine.row_cache, data)
    engine.time = float(data["time"][0])
    engine.step_count = int(data["step_count"][0])
    # Restore the vacancy registry's slot order (it encodes event identity);
    # restore_slot_order also marks every slot stale.
    stored = [None if s < 0 else int(s) for s in data["vacancy_slots"]]
    live = sorted(s for s in stored if s is not None)
    if live != sorted(int(s) for s in engine.cache.sites):
        raise ValueError("checkpoint vacancies do not match the occupancy array")
    free_order = (
        [int(s) for s in data["free_order"]]
        if "free_order" in data.files
        else None
    )
    engine.restore_slot_order(stored, free_order=free_order)
    return engine


# ----------------------------------------------------------------------
# Parallel sublattice worlds
# ----------------------------------------------------------------------
#: CycleStats field order in the serialised history (append-only).
_CYCLE_FIELDS = (
    "sector",
    "events",
    "rejected",
    "compute_seconds",
    "comm_messages",
    "comm_bytes",
    "cache_hits",
    "cache_misses",
    "invalidations",
    "rates_evaluated",
    "selections",
    "selection_depth",
    "rate_batches",
    "batched_rows",
    "rebuild_seconds",
    "select_seconds",
    "hop_seconds",
    "invalidate_seconds",
    "exchange_seconds",
    # Appended after the phase timings (append-only: old archives load
    # with these defaulting to 0 via the zip-stops-at-shortest rule, and
    # archives with a retired trailing column load with it ignored).
    "row_cache_hits",
    "row_cache_misses",
    "row_cache_evictions",
)

_COMM_FIELDS = ("messages_sent", "bytes_sent", "barriers", "collectives")


def save_parallel_checkpoint(path: str, sim) -> None:
    """Serialise a :class:`SublatticeKMC` world at a cycle boundary.

    Stores the gathered global occupancy plus everything per-rank that the
    global state does not determine: the padded window (ghost regions
    included), the rank RNG stream, the kernel slot order and free-list
    stack, and the rank's event counters — together with the sector cursor,
    accumulated communicator statistics, and the per-cycle history.  Must be
    called between cycles (the sublattice protocol has no well-defined
    mid-cycle state).
    """
    stats = sim.world.stats
    arrays = {
        "kind": np.array(["parallel"]),
        "shape": np.array(sim.global_shape, dtype=np.int64),
        "a": np.array([sim.a]),
        "rcut": np.array([sim.tet.rcut]),
        "temperature": np.array([sim.ranks[0].rate_model.temperature]),
        "t_stop": np.array([sim.t_stop]),
        "seed": np.array([sim.seed], dtype=np.int64),
        "sector_mode": np.array([sim.sector_mode]),
        "grid": np.array(sim.decomposition.grid, dtype=np.int64),
        "time": np.array([sim.time]),
        "sector_index": np.array([sim.sector_index], dtype=np.int64),
        "proximity_violations": np.array(
            [sim.proximity_violations], dtype=np.int64
        ),
        "occupancy": sim.gather_global().occupancy,
        "world_stats": np.array(
            [getattr(stats, f) for f in _COMM_FIELDS], dtype=np.int64
        ),
        "cycles": np.array(
            [[float(getattr(c, f)) for f in _CYCLE_FIELDS] for c in sim.cycles],
            dtype=np.float64,
        ).reshape(-1, len(_CYCLE_FIELDS)),
        # Shared row-energy cache: counters persist, contents do not
        # (cold rebuild is bit-identical; see the serial saver).
        "row_cache_counters": _row_cache_counters(sim.row_cache),
    }
    for r, rank in enumerate(sim.ranks):
        keys = rank.kernel.cache.sites
        arrays[f"rank{r}_occupancy"] = rank.window.occupancy
        arrays[f"rank{r}_rng"] = np.array(
            [json.dumps(rank.rng.bit_generator.state)]
        )
        arrays[f"rank{r}_slots"] = np.array(
            [
                (_FREE_SLOT,) * 3 if k is None else tuple(int(v) for v in k)
                for k in keys
            ],
            dtype=np.int64,
        ).reshape(-1, 3)
        arrays[f"rank{r}_free_order"] = np.array(
            rank.kernel.cache.free_slots, dtype=np.int64
        )
        arrays[f"rank{r}_counters"] = np.array(
            [rank.events, rank.rejected, rank.anomalies], dtype=np.int64
        )
        local = rank.exchanger.comm.local_stats
        arrays[f"rank{r}_local_stats"] = np.array(
            [getattr(local, f) for f in _COMM_FIELDS], dtype=np.int64
        )
    np.savez_compressed(path, **arrays)


def load_parallel_checkpoint(
    path: str,
    potential: CountsPotential,
    tet: TripleEncoding | None = None,
    fault_plan=None,
):
    """Rebuild a :class:`SublatticeKMC` whose continuation is bit-exact.

    ``potential`` (and optionally ``tet``) are reconstructed by the caller
    exactly as for the serial loader; ``fault_plan`` re-attaches a (stateful)
    :class:`~repro.parallel.faults.FaultPlan` so rollback-and-replay recovery
    does not re-trigger already-fired faults.
    """
    from ..parallel.engine import CycleStats, SublatticeKMC

    data = _read_archive(path)
    kind = str(data["kind"][0]) if "kind" in data.files else "serial"
    if kind != "parallel":
        raise ValueError(
            f"{path} holds a {kind!r} checkpoint; use load_checkpoint"
        )
    _check_retired_modes(data)
    shape = tuple(int(v) for v in data["shape"])
    a = float(data["a"][0])
    lattice = LatticeState(shape, a=a)
    lattice.occupancy = data["occupancy"].astype(np.uint8)
    if tet is None:
        tet = TripleEncoding(rcut=float(data["rcut"][0]), a=a)

    sim = SublatticeKMC(
        lattice,
        potential,
        tet,
        grid=tuple(int(v) for v in data["grid"]),
        temperature=float(data["temperature"][0]),
        t_stop=float(data["t_stop"][0]),
        seed=int(data["seed"][0]),
        sector_mode=str(data["sector_mode"][0]),
        fault_plan=fault_plan,
    )
    _restore_row_cache(sim.row_cache, data)
    sim.time = float(data["time"][0])
    sim.sector_index = int(data["sector_index"][0])
    sim.proximity_violations = int(data["proximity_violations"][0])
    for name, value in zip(_COMM_FIELDS, data["world_stats"]):
        setattr(sim.world.stats, name, int(value))
    sim.cycles = [
        CycleStats(
            **{
                name: (
                    float(v)
                    if name == "compute_seconds" or name.endswith("_seconds")
                    else int(v)
                )
                for name, v in zip(_CYCLE_FIELDS, row)
            }
        )
        for row in data["cycles"]
    ]

    for r, rank in enumerate(sim.ranks):
        occ = data[f"rank{r}_occupancy"].astype(np.uint8)
        if occ.shape != rank.window.occupancy.shape:
            raise ValueError(
                f"rank {r} window shape {occ.shape} does not match the "
                f"decomposition ({rank.window.occupancy.shape})"
            )
        rank.window.occupancy[:] = occ
        keys = [
            None if int(row[0]) == _FREE_SLOT else tuple(int(v) for v in row)
            for row in data[f"rank{r}_slots"]
        ]
        live = sorted(k for k in keys if k is not None)
        half = rank.window.local_vacancy_half_coords(rank.vacancy_code)
        current = sorted(map(tuple, half.tolist()))
        if live != current:
            raise ValueError(
                f"rank {r}: checkpoint slot registry does not match the "
                "stored occupancy"
            )
        rank.kernel.set_keys(
            keys, free_order=[int(s) for s in data[f"rank{r}_free_order"]]
        )
        rng = np.random.default_rng()
        rng.bit_generator.state = json.loads(str(data[f"rank{r}_rng"][0]))
        rank.rng = rng
        rank.events, rank.rejected, rank.anomalies = (
            int(v) for v in data[f"rank{r}_counters"]
        )
        for name, value in zip(_COMM_FIELDS, data[f"rank{r}_local_stats"]):
            setattr(rank.exchanger.comm.local_stats, name, int(value))
    return sim
