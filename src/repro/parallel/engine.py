"""Parallel AKMC: the synchronous sublattice driver over simulated ranks.

:class:`SublatticeKMC` decomposes a periodic box across ranks (Fig. 2a), runs
the Shim-Amar synchronous sublattice protocol (Fig. 2b) with the paper's
synchronisation interval ``t_stop``, and exchanges boundary changes through
:class:`~repro.parallel.comm.SimComm` after every sector cycle.

Per cycle all ranks evolve the *same* octant sector of their own subdomain
for a duration ``t_stop`` (events that would overshoot the interval are
rejected, the standard semirigorous rule), then ghost regions synchronise and
the sector index rotates.  Conflict freedom holds by construction because
concurrently-active sectors of neighbouring ranks are at least one sector
width apart (validated by :class:`~repro.parallel.sublattice.SectorGeometry`).

Each rank drives the same :class:`~repro.core.kernel.EventKernel` and the
same event body (:func:`~repro.core.loop.kmc_event`) as the serial engines,
over its window's site store (:class:`~repro.core.loop.WindowSites`):
per-vacancy rate rows live in the keyed cache, events are selected through
the Fenwick tree in O(log n), and post-hop / post-exchange invalidation reads
the TET backwards from each changed site (``WindowSites.footprint``) in
O(|changed|).  Vacancies entering or leaving a rank's box are added to /
removed from the kernel registry at the post-cycle rescan (free-list slot
recycling), and the sector restriction maps onto the kernel's active-slot
set.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..constants import T_STOP, TEMPERATURE_RPV
from ..core.delta import DeltaRebuilder
from ..core.kernel import EventKernel, NoMovesError
from ..core.loop import WindowSites, kmc_event
from ..core.profiling import PHASES, PhaseProfiler, merge_disjoint
from ..core.rates import RateModel
from ..core.rowcache import RowEnergyCache, resolve_row_cache
from ..core.tet import TripleEncoding
from ..core.vacancy_system import VacancySystemEvaluator
from ..lattice.domain import LocalWindow
from ..lattice.occupancy import LatticeState
from ..potentials.base import CountsPotential
from .comm import ProtocolError, SimCommWorld, allreduce_sum
from .decomposition import GridDecomposition, choose_grid
from .executor import InlineExecutor
from .faults import FaultPlan
from .ghost import GhostExchanger, SiteUpdates
from .sublattice import N_SECTORS, SectorGeometry

__all__ = ["RankState", "SublatticeKMC", "CycleStats"]


@dataclass
class CycleStats:
    """Per-cycle accounting for the scaling model and kernel instrumentation."""

    sector: int
    events: int
    rejected: int
    compute_seconds: float
    comm_messages: int
    comm_bytes: int
    #: Kernel counter deltas for this cycle (summed over ranks).
    cache_hits: int = 0
    cache_misses: int = 0
    invalidations: int = 0
    rates_evaluated: int = 0
    selections: int = 0
    selection_depth: int = 0
    #: Batched miss-path deltas: fused build calls and rows they produced.
    rate_batches: int = 0
    batched_rows: int = 0
    #: Row-energy cache deltas (the shared persistent memo, when enabled).
    row_cache_hits: int = 0
    row_cache_misses: int = 0
    row_cache_evictions: int = 0
    #: Per-phase wall time this cycle (summed over ranks + the exchange
    #: block), from the rank/world :class:`~repro.core.profiling.PhaseProfiler`s.
    rebuild_seconds: float = 0.0
    select_seconds: float = 0.0
    hop_seconds: float = 0.0
    invalidate_seconds: float = 0.0
    exchange_seconds: float = 0.0


class RankState:
    """Everything one rank owns: window, vacancies, event kernel, RNG."""

    def __init__(
        self,
        rank: int,
        window: LocalWindow,
        exchanger: GhostExchanger,
        sectors: SectorGeometry,
        evaluator: VacancySystemEvaluator,
        rate_model: RateModel,
        rng: np.random.Generator,
    ) -> None:
        self.rank = rank
        self.window = window
        self.exchanger = exchanger
        self.sectors = sectors
        self.evaluator = evaluator
        self.rate_model = rate_model
        self.rng = rng
        self.tet = evaluator.tet
        self.vacancy_code = int(evaluator.vacancy_code)
        # Scalar sector geometry: padded-cell bounds.
        self._local_hi = tuple(window.ghost + n for n in window.box.shape)
        self._sector_mid = tuple(window.ghost + m for m in sectors.mid.tolist())
        self.sites = WindowSites(window, self.tet, self.vacancy_code)
        self.kernel = EventKernel(
            DeltaRebuilder(evaluator, rate_model, self.sites),
            keys=self._local_vacancy_keys(),
        )
        self.events = 0
        self.rejected = 0
        #: Hops blocked by inconsistent (stale) data — naive mode only.
        self.anomalies = 0
        #: Per-phase wall-time attribution of this rank's event loop.
        self.profiler = PhaseProfiler()

    # ------------------------------------------------------------------
    def _local_vacancy_keys(self) -> List[Tuple[int, int, int]]:
        """Window half-coordinate tuples of the owned box's vacancies."""
        half = self.window.local_vacancy_half_coords(self.vacancy_code)
        return list(map(tuple, half.tolist()))

    def sector_of(self, key: Tuple[int, int, int]) -> int:
        """Scalar :meth:`SectorGeometry.sector_of_half` of one window key."""
        x, y, z = key
        mx, my, mz = self._sector_mid
        return ((x >> 1 >= mx) << 2) | ((y >> 1 >= my) << 1) | (z >> 1 >= mz)

    def is_local(self, key: Tuple[int, int, int]) -> bool:
        """Scalar :meth:`LocalWindow.is_local_half` of one window key."""
        x, y, z = key
        g = self.window.ghost
        hx, hy, hz = self._local_hi
        return g <= x >> 1 < hx and g <= y >> 1 < hy and g <= z >> 1 < hz

    def rescan_vacancies(self) -> None:
        """Sync the kernel registry — the rank's vacancy list — with the box.

        Vacancies that hopped out of the owned block (or were moved away by
        a neighbour's update) leave the registry; newly arrived ones get a
        slot from the free list.
        """
        arrived = set(self._local_vacancy_keys())
        kernel = self.kernel
        for slot in kernel.live_slots():
            key = kernel.key_of(slot)
            if key in arrived:
                arrived.discard(key)
            else:
                kernel.remove(slot)
        for key in sorted(arrived):
            kernel.add(key)

    # ------------------------------------------------------------------
    def run_sector(self, sector, t_stop: float) -> SiteUpdates:
        """Evolve one sector (or all vacancies when ``sector is None``).

        Events run until the next one would overshoot ``t_stop`` (it is
        rejected); a vacancy that leaves the sector is deactivated, and
        every hop records its two changed sites for the ghost exchange.
        ``sector=None`` is the *naive* whole-domain mode kept for the
        conflict-demonstration ablation; the sublattice protocol always
        passes a sector index.
        """
        kernel = self.kernel
        profiler = self.profiler
        with profiler.phase("rebuild"):
            active = kernel.live_slots()
            if sector is not None:
                key_of, sector_of = kernel.key_of, self.sector_of
                active = [s for s in active if sector_of(key_of(s)) == sector]
            kernel.set_active(active)
        # Changed sites accumulate as key tuples, converted to (sublattice,
        # global cell) in one batch after the loop.
        changed: List[Tuple[int, int, int]] = []
        changed_species: List[int] = []

        clock = 0.0
        try:
            while True:
                event = kmc_event(
                    kernel, self.sites, self.rng, profiler, clock, t_stop
                )
                if event is None:
                    self.rejected += 1
                    break
                slot, _, vac_key, tgt_key, tgt_species, dt, _ = event
                clock += dt
                if tgt_key is None:
                    self.anomalies += 1
                    continue
                with profiler.phase("hop"):
                    self.events += 1
                    # Record both sites for the ghost exchange.
                    changed.extend((vac_key, tgt_key))
                    changed_species.extend((tgt_species, self.vacancy_code))
                    # The moved vacancy may have left the sector (or even
                    # the local box — ownership resolves at the post-cycle
                    # rescan).
                    if not self.is_local(tgt_key) or (
                        sector is not None and self.sector_of(tgt_key) != sector
                    ):
                        kernel.deactivate(slot)
        except NoMovesError:
            # Nothing selectable remains in this sector (zero total, or the
            # tree clamp landed on a dead row).
            pass
        finally:
            with profiler.phase("rebuild"):
                kernel.set_active(None)

        with profiler.phase("hop"):
            if changed:
                subs, padded = self.window.site_from_half(np.array(changed))
                cells = self.window.global_cell_of_padded(padded)
                return SiteUpdates(subs, cells, np.array(changed_species))
        return SiteUpdates.empty()


class SublatticeKMC:
    """The parallel AKMC driver (paper Sec. 2.2 + TensorKMC innovations).

    Parameters
    ----------
    lattice:
        The initial *global* periodic state; it is scattered to the rank
        windows (and can be gathered back with :meth:`gather_global`).
    potential, tet, temperature:
        As for the serial engines.
    n_ranks / grid:
        Number of simulated MPI ranks, or an explicit rank grid.
    t_stop:
        Synchronisation interval (paper default 2e-8 s).
    seed:
        Base RNG seed; rank ``r`` uses ``seed + r``.
    sector_mode:
        ``"sublattice"`` (default) runs the paper's conflict-free protocol:
        all ranks evolve the *same* octant per cycle.  ``"naive"`` lets every
        rank evolve its whole subdomain each cycle — the MD-style domain
        decomposition the paper warns against (Sec. 2.2), kept for the
        conflict-demonstration ablation.  Because SimComm serialises rank
        execution, naive mode cannot corrupt memory here; instead the driver
        *counts* proximity violations — pairs of same-cycle changes from
        different ranks closer than the interaction reach, i.e. the hops
        that would have raced on a real machine.
    fault_plan:
        Optional :class:`~repro.parallel.faults.FaultPlan` attached to the
        communicator: scripted/seeded message drop, duplication, delay and
        rank kills, surfaced as structured
        :class:`~repro.parallel.comm.ProtocolError`\\ s (see
        ``repro.parallel.recovery`` for the rollback-and-replay driver).

    A potential that gets a row cache on the serial engines gets one here
    too.  The ranks share one evaluator, so a single
    :class:`~repro.core.rowcache.RowEnergyCache` spans every rank's miss
    path; its counters are merged once at the simulation level (rank
    kernels report zeros) and surfaced through :class:`CycleStats` /
    :meth:`summary`.
    """

    def __init__(
        self,
        lattice: LatticeState,
        potential: CountsPotential,
        tet: TripleEncoding,
        n_ranks: int = 2,
        grid: Optional[Tuple[int, int, int]] = None,
        temperature: float = TEMPERATURE_RPV,
        t_stop: float = T_STOP,
        seed: int = 0,
        sector_mode: str = "sublattice",
        ea0=None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if sector_mode not in ("sublattice", "naive"):
            raise ValueError(f"unknown sector_mode {sector_mode!r}")
        self.sector_mode = sector_mode
        self.proximity_violations = 0
        self.global_shape = lattice.shape
        self.a = lattice.a
        self.tet = tet
        self.t_stop = float(t_stop)
        self.seed = int(seed)
        grid = grid or choose_grid(n_ranks, lattice.shape)
        self.decomposition = GridDecomposition(lattice.shape, grid)
        self.world = SimCommWorld(self.decomposition.n_ranks, fault_plan=fault_plan)
        evaluator = VacancySystemEvaluator(tet, potential)
        if lattice.vacancy_code != evaluator.vacancy_code:
            raise ValueError(
                f"lattice vacancy code {lattice.vacancy_code} != potential's "
                f"{evaluator.vacancy_code} (n_elements mismatch)"
            )
        rate_model = RateModel(temperature, ea0=ea0)
        # One shared cache across all ranks (they share the evaluator); the
        # rank kernels are left without a row_cache reference on purpose —
        # `_kernel_counters` sums per-rank counters, so the shared cache's
        # counters are merged exactly once at the simulation level instead.
        self.evaluator = evaluator
        self.row_cache: Optional[RowEnergyCache] = None
        if resolve_row_cache(potential):
            self.attach_row_cache(RowEnergyCache())

        occupancy4d = lattice.occupancy.reshape(2, *lattice.shape)
        self.ranks: List[RankState] = []
        for r in range(self.decomposition.n_ranks):
            box = self.decomposition.box_of_rank(r)
            window = LocalWindow(box, lattice.shape, tet.ghost_cells, a=lattice.a)
            window.fill_from_global(occupancy4d)
            exchanger = GhostExchanger(self.world.comm(r), self.decomposition, window)
            sectors = SectorGeometry(box, tet.min_sector_cells)
            self.ranks.append(
                RankState(
                    rank=r,
                    window=window,
                    exchanger=exchanger,
                    sectors=sectors,
                    evaluator=evaluator,
                    rate_model=rate_model,
                    rng=np.random.default_rng(seed + r),
                )
            )
        self.time = 0.0
        self.sector_index = 0
        self.cycles: List[CycleStats] = []
        #: World-level profiler: the ghost-exchange/rescan block ("exchange").
        #: Per-event phases accumulate on each rank's own profiler.
        self.profiler = PhaseProfiler()
        self._executor = InlineExecutor(self)

    def attach_row_cache(self, cache):
        """Install ``cache`` as the ranks' shared row-energy memo, as
        :meth:`~repro.core.engine.SerialAKMCBase.attach_row_cache` does for
        one engine.  Pass ``None`` to detach.  Returns the cache."""
        self.row_cache = self.evaluator.attach_row_cache(cache)
        return cache

    # ------------------------------------------------------------------
    def _kernel_counters(self) -> Dict[str, int]:
        """Kernel instrumentation summed over all ranks (monotonic)."""
        totals: Dict[str, int] = {}
        for rank in self.ranks:
            for key, value in rank.kernel.counters().items():
                totals[key] = totals.get(key, 0) + int(value)
        if self.row_cache is not None:
            # The cache is shared, not per-rank: merge its counters once
            # (the rank kernels all reported zeros for these keys).
            for key, value in self.row_cache.counters().items():
                totals[key] = totals.get(key, 0) + int(value)
        return totals

    def _phase_totals(self) -> Dict[str, float]:
        """Per-phase seconds summed over rank profilers + the world profiler."""
        totals: Dict[str, float] = {}
        for rank in self.ranks:
            for name, secs in rank.profiler.seconds.items():
                totals[name] = totals.get(name, 0.0) + secs
        for name, secs in self.profiler.seconds.items():
            totals[name] = totals.get(name, 0.0) + secs
        return totals

    def cycle(self) -> CycleStats:
        """One synchronous sublattice cycle: evolve sector, exchange, rotate.

        The cycle index (``sector_index``) drives the communicator's fault
        clock; injected rank kills make the victim skip every phase, and the
        survivors' exchange detects the missing neighbour messages as a
        :class:`~repro.parallel.comm.ProtocolError`.
        """
        sector = self.sector_index % N_SECTORS
        self.world.begin_cycle(self.sector_index)
        killed = self.world.killed
        if len(killed) >= len(self.ranks):
            raise ProtocolError(
                "every rank has been killed — nothing left to run",
                cycle=self.world.cycle,
                transcript=self.world.transcript_tail(),
            )
        msg_before = self.world.stats.messages_sent
        bytes_before = self.world.stats.bytes_sent
        events_before = [r.events for r in self.ranks]
        rejected_before = sum(r.rejected for r in self.ranks)
        kernel_before = self._kernel_counters()
        phases_before = self._phase_totals()

        t0 = _time.perf_counter()
        run_sector = sector if self.sector_mode == "sublattice" else None
        updates = self._executor.run_sectors(run_sector, self.t_stop, killed)
        compute_seconds = _time.perf_counter() - t0
        self.proximity_violations += self._count_proximity_violations(updates)

        # Exchange phase: everyone sends, then everyone applies (lockstep).
        with self.profiler.phase("exchange"):
            for rank, ups in zip(self.ranks, updates):
                if rank.rank in killed:
                    continue
                rank.exchanger.send_updates(ups)
            self._executor.apply_exchange(killed)
            self.world.assert_drained()
            # Time synchronisation: the per-cycle event count flows through a
            # counted collective, so CommStats calibration sees the allreduce
            # traffic every real campaign pays.
            events_cycle = int(
                allreduce_sum(
                    self.world,
                    [
                        float(r.events - before)
                        for r, before in zip(self.ranks, events_before)
                    ],
                )
            )

        self.time += self.t_stop
        self.sector_index += 1
        kernel_after = self._kernel_counters()
        phases_after = self._phase_totals()
        stats = CycleStats(
            sector=sector,
            events=events_cycle,
            rejected=sum(r.rejected for r in self.ranks) - rejected_before,
            compute_seconds=compute_seconds,
            comm_messages=self.world.stats.messages_sent - msg_before,
            comm_bytes=self.world.stats.bytes_sent - bytes_before,
            **{
                key: kernel_after.get(key, 0) - kernel_before.get(key, 0)
                for key in (
                    "cache_hits",
                    "cache_misses",
                    "invalidations",
                    "rates_evaluated",
                    "selections",
                    "selection_depth",
                    "rate_batches",
                    "batched_rows",
                    "row_cache_hits",
                    "row_cache_misses",
                    "row_cache_evictions",
                )
            },
            **{
                f"{name}_seconds": (
                    phases_after.get(name, 0.0) - phases_before.get(name, 0.0)
                )
                for name in PHASES
            },
        )
        self.cycles.append(stats)
        return stats

    def run(self, n_cycles: int) -> List[CycleStats]:
        """Run whole cycles; a sweep of 8 covers every sector once."""
        return [self.cycle() for _ in range(n_cycles)]

    def summary(self) -> Dict[str, float]:
        """Aggregate kernel + protocol counters over all ranks and cycles."""
        out: Dict[str, float] = dict(self._kernel_counters())
        seen = out.get("cache_hits", 0) + out.get("cache_misses", 0)
        out["hit_rate"] = out.get("cache_hits", 0) / seen if seen else 0.0
        out["mean_batch_size"] = (
            out.get("batched_rows", 0) / out["rate_batches"]
            if out.get("rate_batches", 0)
            else 0.0
        )
        out["max_batch_size"] = max(
            (r.kernel.stats.max_batch_size for r in self.ranks), default=0
        )
        out["events"] = self.total_events
        out["anomalies"] = self.total_anomalies
        out["rejected"] = sum(r.rejected for r in self.ranks)
        out["cycles"] = len(self.cycles)
        out["time"] = self.time
        if self.row_cache is not None:
            out["row_cache_hit_rate"] = self.row_cache.hit_rate
            out["row_cache_entries"] = len(self.row_cache)
            out["row_cache_bytes"] = self.row_cache.memory_bytes()
        phases = self._phase_totals()
        # Same no-silent-overwrite contract as the serial summary: the
        # counter namespace and the phase-timing namespace must stay
        # disjoint, and drifting into each other raises.
        return merge_disjoint(
            out, {f"{name}_seconds": phases.get(name, 0.0) for name in PHASES}
        )

    def _count_proximity_violations(self, updates) -> int:
        """Same-cycle changes from different ranks within interaction reach.

        On a real machine two such hops race on each other's stale ghost
        data; the sublattice sector separation makes the count provably
        zero, while naive whole-domain cycles accumulate violations.
        """
        reach = self.tet.invalidation_radius
        dims = np.array(self.global_shape, dtype=np.float64)
        span = dims * self.a
        points = []
        for rank, ups in zip(self.ranks, updates):
            if len(ups):
                sub = ups.sublattice.astype(np.float64)
                pos = (ups.cell.astype(np.float64) + 0.5 * sub[:, None]) * self.a
                points.append((rank.rank, pos))
        count = 0
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                ri, pi = points[i]
                rj, pj = points[j]
                delta = pi[:, None, :] - pj[None, :, :]
                delta -= span * np.round(delta / span)
                dist = np.sqrt(np.sum(delta**2, axis=-1))
                count += int(np.sum(dist <= reach))
        return count

    # ------------------------------------------------------------------
    def gather_global(self) -> LatticeState:
        """Reassemble the global lattice from the owned blocks."""
        out = LatticeState(self.global_shape, a=self.a)
        occupancy4d = out.occupancy.reshape(2, *self.global_shape)
        for rank in self.ranks:
            box = rank.window.box
            occupancy4d[
                :,
                box.lo[0] : box.hi[0],
                box.lo[1] : box.hi[1],
                box.lo[2] : box.hi[2],
            ] = rank.window.local_block()
        return out

    def check_ghost_consistency(self) -> bool:
        """Verify every rank's ghost cells agree with the owners' data."""
        reference = self.gather_global().occupancy.reshape(2, *self.global_shape)
        for rank in self.ranks:
            fresh = LocalWindow(
                rank.window.box, self.global_shape, rank.window.ghost, a=self.a
            )
            fresh.fill_from_global(reference)
            if not np.array_equal(fresh.occupancy, rank.window.occupancy):
                return False
        return True

    @property
    def total_events(self) -> int:
        return sum(r.events for r in self.ranks)

    @property
    def total_anomalies(self) -> int:
        """Hops blocked by stale data (must be 0 in sublattice mode)."""
        return sum(r.anomalies for r in self.ranks)
