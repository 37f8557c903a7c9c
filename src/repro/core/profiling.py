"""Lightweight phase profiler for the event hot path.

Every engine wants the same question answered: of the microseconds one KMC
event costs, how many go to propensity rebuilds, to selection, to executing
the hop, to distance invalidation, and (for the parallel driver) to the
ghost exchange?  :class:`PhaseProfiler` attributes wall time to named phases
through reusable context-manager timers:

.. code-block:: python

    prof = PhaseProfiler()
    with prof.phase("select"):
        slot, direction = kernel.select(u)

The timers are cached per phase name, so entering a phase on the hot path
costs two ``perf_counter`` calls and two dict updates (~0.3 us) — cheap
enough to leave on in production runs.  The one event body,
:func:`repro.core.loop.kmc_event`, times its rebuild / select / hop /
invalidate phases into the driver's profiler, so the serial
(:meth:`repro.core.engine.SerialAKMCBase.summary`), parallel
(:class:`repro.parallel.engine.CycleStats`) and campaign (each replica's
summary) breakdowns, and the ``phase_us_per_event`` lines in
``BENCH_kernel.json``, all read the same phases.

The canonical phase names used across the engines are in :data:`PHASES`;
the profiler itself accepts any name.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Mapping

__all__ = ["PHASES", "PhaseProfiler", "merge_disjoint"]

#: Phase names the engines use, in reporting order: propensity/cache
#: rebuild, two-level selection, hop execution, distance invalidation, and
#: (parallel only) the ghost-exchange/rescan block.
PHASES = ("rebuild", "select", "hop", "invalidate", "exchange")


def merge_disjoint(*mappings: Mapping) -> Dict:
    """Merge mappings into one dict, refusing any key collision.

    Engine summaries fold kernel counters, step/clock state, and the
    profiler's ``{phase}_seconds`` timings into a single flat namespace; a
    plain ``dict.update`` chain would let a later source silently overwrite
    an earlier counter if the namespaces ever drift into each other.  This
    helper makes that drift loud: a duplicate key raises :class:`ValueError`
    naming the colliding key instead of shipping a corrupted summary.
    """
    out: Dict = {}
    for mapping in mappings:
        for key, value in mapping.items():
            if key in out:
                raise ValueError(
                    f"summary key collision on {key!r}: refusing to merge "
                    "overlapping summary namespaces (namespace the source "
                    "or rename the counter)"
                )
            out[key] = value
    return out


class _PhaseTimer:
    """Reusable (non-reentrant) context manager accumulating into one phase."""

    __slots__ = ("_seconds", "_calls", "_name", "_t0")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._seconds = profiler.seconds
        self._calls = profiler.calls
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_PhaseTimer":
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self._seconds[self._name] += perf_counter() - self._t0
        self._calls[self._name] += 1
        return False


class PhaseProfiler:
    """Accumulates wall-clock seconds and call counts per named phase."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self._timers: Dict[str, _PhaseTimer] = {}

    def phase(self, name: str):
        """Context manager timing one occurrence of ``name``."""
        timer = self._timers.get(name)
        if timer is None:
            self.seconds.setdefault(name, 0.0)
            self.calls.setdefault(name, 0)
            timer = _PhaseTimer(self, name)
            self._timers[name] = timer
        return timer

    def reset(self) -> None:
        for name in self.seconds:
            self.seconds[name] = 0.0
        for name in self.calls:
            self.calls[name] = 0

    def summary(self) -> Dict[str, float]:
        """Flat ``{phase}_seconds`` mapping for engine summaries."""
        return {f"{name}_seconds": secs for name, secs in self.seconds.items()}
