"""Rollback-and-replay recovery for the parallel sublattice driver.

The paper's flagship campaign (422,400 processes for days) survives only if a
failed cycle can be thrown away and replayed from a known-good state.  This
driver implements the standard checkpoint-restart loop over
:class:`~repro.parallel.engine.SublatticeKMC`:

* a cycle-boundary checkpoint is written every ``checkpoint_every`` cycles
  (parallel checkpoints are bit-exact — see ``repro.io.checkpoint``);
* when a cycle raises :class:`~repro.parallel.comm.ProtocolError` (missing /
  duplicated / delayed message, dead rank), the *whole world* is discarded
  and rebuilt from the last checkpoint;
* the attached :class:`~repro.parallel.faults.FaultPlan` is carried over to
  the rebuilt world — its fired events never re-trigger (one-shot
  semantics), which models replacing the failed node.

Because checkpoint restore is bit-exact and a faulted cycle never commits
(``sim.cycles``, ``sim.time`` and the rank windows of a failed cycle are all
discarded with the old object), the recovered trajectory is bit-identical to
a fault-free run — asserted in ``tests/test_fault_injection.py``.
"""

from __future__ import annotations

import os
from typing import Optional, Tuple

import numpy as np

from ..core.tet import TripleEncoding
from ..io.checkpoint import (
    checkpoint_kind,
    load_parallel_checkpoint,
    save_parallel_checkpoint,
)
from ..potentials.base import CountsPotential
from .comm import ProtocolError
from .engine import SublatticeKMC

__all__ = ["run_resilient"]


def _validate_archive(path: str, sim: SublatticeKMC) -> None:
    """Refuse to clobber an archive that does not belong to ``sim``.

    ``run_resilient`` writes an entry checkpoint before its first cycle; if
    the caller points it at an unrelated archive (a serial checkpoint, a
    different world's, or a *later* state of this campaign), that overwrite
    silently destroys it.  An existing file must therefore look like an
    earlier-or-equal checkpoint of this very simulation: parallel kind,
    matching global shape and rank grid, and a stored cycle count no greater
    than the running world's.
    """
    try:
        kind = checkpoint_kind(path)
    except Exception as exc:
        raise ValueError(
            f"refusing to overwrite {path!r}: existing file is not a "
            f"readable checkpoint archive ({exc}); delete it or point "
            "checkpoint_path elsewhere"
        ) from exc
    if kind != "parallel":
        raise ValueError(
            f"refusing to overwrite {path!r}: it holds a {kind!r} "
            "checkpoint, not a parallel one; delete it or point "
            "checkpoint_path elsewhere"
        )
    with np.load(path, allow_pickle=False) as data:
        shape = tuple(int(v) for v in data["shape"])
        grid = tuple(int(v) for v in data["grid"])
        stored_cycles = int(data["cycles"].shape[0])
    if shape != tuple(sim.global_shape):
        raise ValueError(
            f"refusing to overwrite {path!r}: archive shape {shape} does "
            f"not match the running world {tuple(sim.global_shape)}"
        )
    if grid != tuple(sim.decomposition.grid):
        raise ValueError(
            f"refusing to overwrite {path!r}: archive rank grid {grid} "
            f"does not match the running world {tuple(sim.decomposition.grid)}"
        )
    if stored_cycles > len(sim.cycles):
        raise ValueError(
            f"refusing to overwrite {path!r}: archive is at cycle "
            f"{stored_cycles}, ahead of the running world's "
            f"{len(sim.cycles)}; resume from the archive instead"
        )


def run_resilient(
    sim: SublatticeKMC,
    n_cycles: int,
    checkpoint_path: str,
    potential: CountsPotential,
    *,
    tet: Optional[TripleEncoding] = None,
    checkpoint_every: int = 4,
    max_recoveries: int = 16,
) -> Tuple[SublatticeKMC, int]:
    """Run ``n_cycles`` more cycles, recovering from injected comm faults.

    Returns ``(sim, recoveries)``; note the returned ``sim`` is a *new*
    object whenever at least one recovery happened.  ``potential`` (and
    optionally ``tet``) must match the running simulation — checkpoints store
    only dynamic state, deterministic inputs are reconstructed by the caller.

    Raises the last :class:`~repro.parallel.comm.ProtocolError` unchanged if
    ``max_recoveries`` rollbacks are exhausted (a fault plan hostile enough
    to fail every replay window is a configuration error, not bad luck).

    A file already present at ``checkpoint_path`` must be a compatible
    earlier-or-equal checkpoint of this world (parallel kind, same shape and
    rank grid, cycle count not ahead of ``sim``); anything else raises
    :class:`ValueError` instead of being silently overwritten.
    """
    if n_cycles < 1:
        raise ValueError(f"n_cycles must be >= 1, got {n_cycles}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if os.path.exists(checkpoint_path):
        _validate_archive(checkpoint_path, sim)
    save_parallel_checkpoint(checkpoint_path, sim)
    target = len(sim.cycles) + n_cycles
    recoveries = 0
    while len(sim.cycles) < target:
        try:
            sim.cycle()
        except ProtocolError:
            recoveries += 1
            if recoveries > max_recoveries:
                raise
            # Roll the world back: same plan object, so the fired fault does
            # not replay; the failed cycle never committed any state we keep.
            sim = load_parallel_checkpoint(
                checkpoint_path, potential, tet=tet,
                fault_plan=sim.world.fault_plan,
            )
            continue
        if len(sim.cycles) % checkpoint_every == 0:
            save_parallel_checkpoint(checkpoint_path, sim)
    # Always leave the archive at the final cycle boundary so a later
    # ``resume`` continues from where this campaign stopped.
    save_parallel_checkpoint(checkpoint_path, sim)
    return sim, recoveries
