"""Serial AKMC engines.

:class:`TensorKMCEngine` is the paper's serial algorithm: triple-encoding
vacancy systems, the vacancy cache, and tree-based propensity selection.  The
OpenKMC-style baseline in :mod:`repro.baseline.openkmc` shares the event loop
through :class:`SerialAKMCBase` but rebuilds every vacancy system on every
step ("cache all" semantics, which for rates means no reuse at all) — with the
same seed the two produce bit-identical trajectories, which is exactly the
validation of Fig. 8.

Both engines are thin drivers over the shared
:class:`~repro.core.kernel.EventKernel`, which owns the rate cache, the
two-level propensity selection and the stencil invalidation, with a
:class:`~repro.core.delta.DeltaRebuilder` as its miss path.  A step is one
:func:`~repro.core.loop.kmc_event` over the lattice's site store
(:class:`~repro.core.loop.LatticeSites`) — the same event body the parallel
:class:`~repro.parallel.engine.RankState` loops over its window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..constants import TEMPERATURE_RPV
from ..lattice.occupancy import LatticeState
from ..potentials.base import CountsPotential
from .delta import DeltaRebuilder
from .kernel import EventKernel, NoMovesError
from .loop import LatticeSites, kmc_event
from .profiling import PhaseProfiler, merge_disjoint
from .propensity import FenwickPropensity
from .rates import RateModel
from .rowcache import RowEnergyCache
from .tet import TripleEncoding
from .vacancy_cache import VacancyCache
from .vacancy_system import VacancySystemEvaluator

__all__ = ["KMCEvent", "NoMovesError", "SerialAKMCBase", "TensorKMCEngine"]


@dataclass(frozen=True)
class KMCEvent:
    """One executed vacancy hop."""

    step: int
    time: float
    dt: float
    slot: int
    from_site: int
    to_site: int
    direction: int
    migrating_species: int
    total_rate: float


class SerialAKMCBase:
    """Shared event loop of the serial engines.

    Parameters
    ----------
    lattice:
        The periodic occupancy state (mutated in place).
    potential:
        Counts-based potential whose shells match ``tet``.
    tet:
        Triple-encoding tables for the interaction cutoff.
    temperature:
        Simulation temperature in Kelvin.
    rng:
        Random generator; the draw order is fixed (selection then time, see
        :func:`repro.core.rates.residence_time`), so identical seeds give
        identical trajectories across engine variants.

    The evaluator gets a persistent
    :class:`~repro.core.rowcache.RowEnergyCache` under its default byte
    budget, whatever the potential: unique-row energies are memoized across
    batches and steps, so the rebuild phase looks recurring environments up
    instead of re-evaluating them.  A hit returns the bits a fresh
    evaluation would, so the cache never changes a trajectory.

    Cache misses take the batched path — every stale vacancy queued since
    the last selection goes through one fused rebuild (the paper's
    big-fusion batching, Sec. 3.4/Fig. 9).  The rebuild is incremental:
    each slot's VET and per-row trial-state energies stay resident, hops
    scatter-patch them, and a refresh re-evaluates only the rows whose
    inputs changed (see :mod:`repro.core.delta`).  Both need per-row rates
    that do not depend on the batch, so a potential that is not
    ``batch_row_invariant`` raises :class:`ValueError` here; every shipped
    potential qualifies.
    """

    #: Whether cached vacancy systems may be reused between steps.
    use_cache: bool = True

    def __init__(
        self,
        lattice: LatticeState,
        potential: CountsPotential,
        tet: TripleEncoding,
        temperature: float = TEMPERATURE_RPV,
        rng: Optional[np.random.Generator] = None,
        ea0=None,
    ) -> None:
        if abs(lattice.a - tet.geometry.a) > 1e-12:
            raise ValueError("lattice constant mismatch between lattice and TET")
        tet.check_box(lattice.shape)
        self.lattice = lattice
        self.potential = potential
        self.tet = tet
        self.evaluator = VacancySystemEvaluator(tet, potential)
        if lattice.vacancy_code != self.evaluator.vacancy_code:
            raise ValueError(
                f"lattice vacancy code {lattice.vacancy_code} != potential's "
                f"{self.evaluator.vacancy_code} (n_elements mismatch)"
            )
        self.rate_model = RateModel(temperature, ea0=ea0)
        self.rng = rng if rng is not None else np.random.default_rng()
        vac_sites = sorted(int(s) for s in lattice.vacancy_ids)
        if not vac_sites:
            raise ValueError("lattice contains no vacancies; nothing can evolve")
        self.sites = LatticeSites(lattice, tet)
        self.kernel = EventKernel(
            DeltaRebuilder(self.evaluator, self.rate_model, self.sites),
            keys=vac_sites,
            use_cache=self.use_cache,
        )
        self.evaluator.attach_row_cache(RowEnergyCache())
        self.time = 0.0
        self.step_count = 0
        self.events: List[KMCEvent] = []
        self.record_events = False
        #: Per-phase wall-time attribution of the event loop (rebuild /
        #: select / hop / invalidate), surfaced through :meth:`summary`.
        self.profiler = PhaseProfiler()

    # ------------------------------------------------------------------
    # Kernel plumbing (kept under their historical names)
    # ------------------------------------------------------------------
    @property
    def cache(self) -> VacancyCache:
        """The kernel's vacancy-system cache."""
        return self.kernel.cache

    @property
    def store(self) -> FenwickPropensity:
        """The kernel's propensity store."""
        return self.kernel.store

    def build_system(self, slot: int) -> Tuple[np.ndarray, np.ndarray]:
        """From-scratch ``(vet, rates)`` of a slot: one scalar evaluation.

        The test oracle for the cached and incrementally patched entries.
        """
        site = int(self.kernel.key_of(slot))
        vet = self.lattice.occupancy[
            self.lattice.neighbor_ids(site, self.tet.all_offsets)
        ]
        return vet, self.rate_model.rates(self.evaluator.evaluate(vet))

    # ------------------------------------------------------------------
    # The KMC step
    # ------------------------------------------------------------------
    def step(self) -> KMCEvent:
        """Execute one residence-time KMC event and advance the clock.

        Raises :class:`NoMovesError` when the system is frozen.
        """
        slot, direction, from_site, to_site, migrating, dt, total = kmc_event(
            self.kernel, self.sites, self.rng, self.profiler
        )
        self.time += dt
        self.step_count += 1
        event = KMCEvent(
            step=self.step_count,
            time=self.time,
            dt=dt,
            slot=slot,
            from_site=from_site,
            to_site=to_site,
            direction=direction,
            migrating_species=migrating,
            total_rate=total,
        )
        if self.record_events:
            self.events.append(event)
        return event

    def run(
        self,
        n_steps: Optional[int] = None,
        t_end: Optional[float] = None,
        callback: Optional[Callable[[KMCEvent], None]] = None,
    ) -> int:
        """Run until a step budget or a simulated-time horizon is exhausted.

        Returns the number of events executed.  At least one of ``n_steps``
        and ``t_end`` must be provided.

        A system whose rate tree empties mid-horizon (every direction of
        every vacancy invalid — e.g. all remaining movers annihilated or
        frozen) ends the run early: a frozen system is a *result*, not a
        crash, so the events executed so far are returned.  :meth:`step`
        itself raises :class:`NoMovesError` in that state.
        """
        if n_steps is None and t_end is None:
            raise ValueError("provide n_steps and/or t_end")
        executed = 0
        while True:
            if n_steps is not None and executed >= n_steps:
                break
            if t_end is not None and self.time >= t_end:
                break
            try:
                event = self.step()
            except NoMovesError:
                break
            executed += 1
            if callback is not None:
                callback(event)
        return executed

    @property
    def row_cache(self) -> Optional[RowEnergyCache]:
        """The evaluator's row-energy cache (read-only view)."""
        return self.evaluator.row_cache

    # ------------------------------------------------------------------
    def total_propensity(self) -> float:
        """Current total event rate (refreshing stale systems first)."""
        self.kernel.refresh()
        return self.kernel.total

    def restore_slot_order(self, sites, free_order=None) -> None:
        """Restore a checkpointed slot -> site registry.

        The slot order encodes event identity in a resumed trajectory; this
        also marks everything stale.
        ``None`` entries in ``sites`` are parked (freed) slots and
        ``free_order`` restores their recycling stack order, so a run that
        annihilated/created vacancies resumes bit-exactly.
        """
        self.kernel.set_keys(
            (None if s is None else int(s) for s in sites),
            free_order=free_order,
        )

    def summary(self) -> Dict[str, float]:
        """Merged engine + kernel instrumentation counters and phase times.

        The four sources — kernel counters, the row cache's counters, the
        engine's step/clock state, and the profiler's ``{phase}_seconds``
        timings — share one flat namespace;
        :func:`~repro.core.profiling.merge_disjoint` guarantees a key
        collision raises instead of silently overwriting a counter.
        """
        cache = self.row_cache
        return merge_disjoint(
            self.kernel.summary(),
            cache.summary() if cache is not None else {},
            {"steps": self.step_count, "time": self.time},
            self.profiler.summary(),
        )


class TensorKMCEngine(SerialAKMCBase):
    """The paper's serial engine: triple-encoding + vacancy cache + tree."""

    use_cache = True
