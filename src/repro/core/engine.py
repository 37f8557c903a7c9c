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
two-level propensity selection and the cell-narrowed invalidation; the
parallel :class:`~repro.parallel.engine.RankState` sits on the very same
kernel.  The engine keeps only the physics callbacks (vacancy-system
construction from the live lattice) and the event loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional

import numpy as np

from ..constants import TEMPERATURE_RPV
from ..lattice.occupancy import LatticeState
from ..potentials.base import CountsPotential
from .delta import DeltaRebuilder
from .kernel import EventKernel, NoMovesError
from .profiling import PhaseProfiler, merge_disjoint
from .propensity import FenwickPropensity
from .rates import RateModel, residence_time
from .rowcache import RowEnergyCache, resolve_row_cache
from .tet import TripleEncoding
from .vacancy_cache import BatchEntries, CachedVacancySystem, VacancyCache
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

    A row-invariant network potential (the NNP family; see
    :func:`~repro.core.rowcache.resolve_row_cache`) gets a persistent
    :class:`~repro.core.rowcache.RowEnergyCache` under its default byte
    budget: unique-row energies are memoized across batches and steps, so
    the rebuild phase looks recurring environments up instead of re-running
    the GEMM stack.  A hit returns the bits a fresh evaluation would, so the
    cache never changes a trajectory.

    Cache misses take the batched path — every stale vacancy queued since
    the last selection goes through one fused
    :meth:`~repro.core.vacancy_system.VacancySystemEvaluator.evaluate_batch`
    (the paper's big-fusion batching, Sec. 3.4/Fig. 9) — exactly when the
    potential declares ``batch_row_invariant``: per-row rates are then
    bit-identical to a one-VET evaluation, so batching cannot change a
    trajectory.  Every shipped potential qualifies; one that does not is
    evaluated one vacancy at a time.  With the cache on, the batched path is
    incremental: each slot's VET and per-row trial-state energies stay
    resident, hops scatter-patch them, and a refresh re-evaluates only the
    rows whose inputs changed (see :mod:`repro.core.delta`).
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
        batched_miss = getattr(potential, "batch_row_invariant", False)
        self.kernel = EventKernel(
            self._build_for_site,
            lattice.half_of,
            threshold=tet.invalidation_radius,
            scale=lattice.a / 2.0,
            periodic_half=2 * np.asarray(lattice.shape, dtype=np.int64),
            keys=vac_sites,
            use_cache=self.use_cache,
            build_entries=self._build_for_sites if batched_miss else None,
        )
        # The incremental rebuild rides on the batched miss path and the
        # cache (it keeps the full BatchEntries payload resident).
        if batched_miss and self.use_cache:
            rebuilder = DeltaRebuilder(
                self.kernel.cache,
                self.evaluator,
                self.rate_model,
                sites_of=self._delta_sites_of,
                gather=self._delta_gather,
                locate=self._delta_locate,
            )
            self.kernel.build_entries_delta = rebuilder.build_entries
            self.kernel.patch_entries = rebuilder.patch_entries
        self.row_cache: Optional[RowEnergyCache] = None
        if resolve_row_cache(potential):
            self.attach_row_cache(RowEnergyCache())
        #: First-neighbour hop vectors as Python ints: the hop's coordinate
        #: arithmetic is scalar, array round-trips would dominate it.
        self._nn_half = [tuple(row) for row in tet.nn_offsets.tolist()]
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

    # ------------------------------------------------------------------
    # Vacancy-system (re)construction
    # ------------------------------------------------------------------
    def _build_for_site(self, site: Hashable) -> CachedVacancySystem:
        """Build the vacancy system at a flat site from the current lattice."""
        site = int(site)
        vet_ids = self.lattice.neighbor_ids(site, self.tet.all_offsets)
        vet = self.lattice.occupancy[vet_ids]
        energies = self.evaluator.evaluate(vet)
        rates = self.rate_model.rates(energies)
        return CachedVacancySystem(
            site=site, vet_ids=vet_ids, vet=vet, energies=energies, rates=rates
        )

    def _gather_for_sites(self, sites):
        """``(ids, vet_ids, vets)`` gather of a site batch, no evaluation.

        The read-only half of the batched miss path, split out so an
        external driver (the cross-replica campaign) can collect many
        engines' miss rows and evaluate them through one shared potential
        call; :meth:`_build_for_sites` and the campaign produce identical
        gathers by construction.
        """
        ids = np.asarray([int(s) for s in sites], dtype=np.int64)
        half = self.lattice.half_coords(ids)
        vet_ids = self.lattice.ids_from_half(
            half[:, None, :] + self.tet.all_offsets[None, :, :]
        )
        vets = self.lattice.occupancy[vet_ids]
        return ids, vet_ids, vets

    def _build_for_sites(self, sites) -> BatchEntries:
        """Batched miss path: all queued vacancy systems in one fused pass.

        VET gathers, feature counts, and the potential evaluation all run
        once over the stacked ``(B, 9, n_all)`` trial states (see
        :meth:`VacancySystemEvaluator.evaluate_batch`).  The result stays in
        array form: the kernel scatters the whole :class:`BatchEntries` into
        the cache's slot arrays without per-slot Python objects.
        """
        ids, vet_ids, vets = self._gather_for_sites(sites)
        energies = self.evaluator.evaluate_batch(vets)
        rates = self.rate_model.rates_batch(energies)
        return BatchEntries(
            sites=ids, vet_ids=vet_ids, vets=vets, energies=energies,
            rates=rates,
        )

    # ------------------------------------------------------------------
    # Delta-rebuild plumbing (see repro.core.delta): flat lattice ids are
    # both the slot keys and the VET id space.
    # ------------------------------------------------------------------
    def _delta_sites_of(self, keys) -> np.ndarray:
        return np.asarray([int(s) for s in keys], dtype=np.int64)

    def _delta_gather(self, keys):
        """From-scratch ``(vet_ids, vets)`` gather for a subset of keys.

        Keys are lattice sites and the VET offsets are BCC translations, so
        every generated coordinate is a valid site by construction and the
        parity check is skipped.  The usual batch is a single key (the
        event's mover), so the centre decomposition runs in Python scalars
        and only the per-window work is vectorised — the same modular
        arithmetic as
        :meth:`~repro.lattice.occupancy.LatticeState.ids_from_half`,
        producing identical ids.
        """
        lat = self.lattice
        nx, ny, nz = lat.shape
        offsets = self.tet.all_offsets
        vet_ids = np.empty((len(keys), offsets.shape[0]), dtype=np.int64)
        for n, key in enumerate(keys):
            vet_half = offsets + np.array(lat.half_of(key), dtype=np.int64)
            ss = vet_half[:, 0] & 1
            cells = (vet_half - ss[:, None]) >> 1
            cells %= lat._dims
            vet_ids[n] = (
                (ss * nx + cells[:, 0]) * ny + cells[:, 1]
            ) * nz + cells[:, 2]
        return vet_ids, self.lattice.occupancy[vet_ids]

    def _delta_locate(self, points_half: np.ndarray):
        """Current ``(ids, species)`` at changed half-positions."""
        ids = self.lattice.ids_from_half(points_half, checked=False)
        return ids, self.lattice.occupancy[ids]

    def build_system(self, slot: int) -> CachedVacancySystem:
        """Build the vacancy system of a slot from the current lattice."""
        return self._build_for_site(self.kernel.key_of(slot))

    def _refresh(self) -> None:
        """Bring all slots up to date before selection."""
        self.kernel.refresh()

    # ------------------------------------------------------------------
    # The KMC step
    # ------------------------------------------------------------------
    def step(self) -> KMCEvent:
        """Execute one residence-time KMC event and advance the clock."""
        kernel = self.kernel
        profiler = self.profiler
        with profiler.phase("rebuild"):
            kernel.refresh()
        with profiler.phase("select"):
            total = kernel.total
            if total <= 0.0:
                raise NoMovesError(
                    "total propensity is zero — system is frozen"
                )
            u_select = self.rng.random() * total
            slot, direction, entry = kernel.select(u_select)
            dt = residence_time(total, 1.0 - self.rng.random())

        with profiler.phase("hop"):
            lattice = self.lattice
            from_site = entry.site
            from_half = lattice.half_of(from_site)
            dx, dy, dz = self._nn_half[direction]
            to_site = lattice.site_at_half(
                from_half[0] + dx, from_half[1] + dy, from_half[2] + dz
            )
            migrating = int(lattice.occupancy[to_site])
            lattice.swap(from_site, to_site)
            kernel.move(slot, to_site)
        with profiler.phase("invalidate"):
            kernel.invalidate_near((from_half, lattice.half_of(to_site)))

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

    def attach_cost_ledger(self, ledger):
        """Charge all rate evaluations (per-slot and batched miss paths) to
        ``ledger`` via the Fig. 9 operator cost model; see
        :meth:`~repro.core.vacancy_system.VacancySystemEvaluator.attach_cost_ledger`.
        """
        return self.evaluator.attach_cost_ledger(ledger)

    def attach_row_cache(self, cache):
        """Install ``cache`` as the persistent row-energy memo.

        Threads the cache into the evaluator (which consults it on every
        dedup'd miss batch) and the kernel (which reports its counters);
        the campaign uses this to swap every admitted replica onto one
        shared cache.  Pass ``None`` to detach.  Returns the cache.
        """
        self.row_cache = cache
        self.kernel.row_cache = cache
        return self.evaluator.attach_row_cache(cache)

    # ------------------------------------------------------------------
    def total_propensity(self) -> float:
        """Current total event rate (refreshing stale systems first)."""
        self.kernel.refresh()
        return self.kernel.total

    def restore_slot_order(self, sites, free_order=None) -> None:
        """Restore a checkpointed slot -> site registry.

        The slot order encodes event identity in a resumed trajectory; this
        also resyncs the kernel's spatial index and marks everything stale.
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

        The three sources — kernel counters, the engine's step/clock state,
        and the profiler's ``{phase}_seconds`` timings — share one flat
        namespace; :func:`~repro.core.profiling.merge_disjoint` guarantees a
        key collision raises instead of silently overwriting a counter.
        """
        return merge_disjoint(
            self.kernel.summary(),
            {"steps": self.step_count, "time": self.time},
            self.profiler.summary(),
        )


class TensorKMCEngine(SerialAKMCBase):
    """The paper's serial engine: triple-encoding + vacancy cache + tree."""

    use_cache = True
