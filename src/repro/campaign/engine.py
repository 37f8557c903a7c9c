"""Cross-replica campaign driver with autobatched miss evaluation.

A production KMC study is rarely one trajectory: it is a *campaign* — a seed
sweep for statistics, or a temperature ladder for Arrhenius fits — of many
small, independent replicas.  Run naively, each replica funnels its handful
of stale vacancy systems through its own potential call per step, and the
expensive evaluator (the NNP's tiled-GEMM inference in particular) sees a
stream of tiny batches that waste its throughput.

:class:`ReplicaCampaign` runs R replicas in one process and, once per round,
refreshes every replica with one :func:`~repro.core.kernel.refresh_many`
call, the refresh a solo engine runs over its one kernel.  The replicas'
vacancy caches live in one :class:`~repro.core.vacancy_cache.SlotPool`, a
contiguous block each, so the round's bookkeeping runs once over the pool:
one stale sweep, one plan (every row of a from-scratch slot, only the dirty
rows of a snapshot slot; each mover gathered through its own replica's
site store), one splice into the pooled snapshot slab and one rate store,
with one ``rates_batch`` per distinct rate model.  *All* replicas' rows go
through a single
:meth:`~repro.core.vacancy_system.VacancySystemEvaluator.evaluate_batch_segments`
call — the autobatching idea popularised by batched MD front-ends
(independent systems share one forward pass) on top of the paper's
keep-it-resident rebuild.  A replica that finishes (or freezes) is
hot-swapped out for the next queued spec, which takes over its block of
the pool, so the shared batch stays full.  Cross-replica deduplication
comes for free: the row dedup of the shared call sees identical vacancy
environments from *different* replicas (common in a seed sweep's dilute
matrix) and evaluates them once.

**Bit-identity.**  The campaign changes *when and where* rows are evaluated,
never their values.  Its engines only accept ``batch_row_invariant``
potentials (per-row results independent of batch composition — see
:class:`~repro.potentials.base.CountsPotential`); every slot of the pool
goes through the same elementwise operations as in a solo refresh, each
replica's movers are gathered by its own site store and its slots rated by
its own :class:`~repro.core.rates.RateModel` (temperatures may differ per
replica), and the pooled slots and rows are ordered replica-major as one
plan per replica would be.  Then each replica updates its own propensity
tree and counters, so replica slots hold delta snapshots exactly as a solo
run's do, and each replica's own invalidation patches them.  Each
replica's subsequent :meth:`~repro.core.engine.SerialAKMCBase.step` — the
solo event, unchanged — finds nothing stale and draws from its own RNG in
the usual order, so every fixed-seed trajectory is bit-identical to running
that replica solo — asserted over the full campaign, hot swaps included, in
``tests/test_campaign.py``.  Running the specs one after another through
:meth:`~repro.core.engine.SerialAKMCBase.run` is that solo baseline; it
needs no campaign.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..constants import TEMPERATURE_RPV, VACANCY_CONCENTRATION
from ..core.engine import SerialAKMCBase, TensorKMCEngine
from ..core.kernel import NoMovesError, refresh_many
from ..core.profiling import PhaseProfiler, merge_disjoint
from ..core.rowcache import RowEnergyCache
from ..core.vacancy_cache import SlotPool
from ..lattice import LatticeState

__all__ = [
    "ReplicaCampaign",
    "ReplicaResult",
    "ReplicaSpec",
    "alloy_engine_factory",
    "occupancy_digest",
    "seed_sweep",
    "temperature_ladder",
]

#: Campaign phase names, in reporting order: replica admission/hot swap,
#: the round's one refresh over every replica, and the per-replica KMC
#: steps.
CAMPAIGN_PHASES = ("admit", "refresh", "step")


@dataclass(frozen=True)
class ReplicaSpec:
    """One replica of a campaign: a name, its RNG seed, its temperature,
    and its event budget.  The seed follows the CLI convention — lattice
    disorder from ``default_rng(seed)``, the engine's event stream from
    ``default_rng(seed + 1)`` — so a campaign replica and a ``repro run
    --seed N`` invocation describe the same trajectory."""

    name: str
    seed: int
    temperature: float = TEMPERATURE_RPV
    n_steps: int = 100

    def __post_init__(self) -> None:
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be >= 0, got {self.n_steps}")


def seed_sweep(
    seeds: Iterable[int],
    n_steps: int = 100,
    temperature: float = TEMPERATURE_RPV,
) -> List[ReplicaSpec]:
    """One replica per seed, all at one temperature (statistics sweep)."""
    return [
        ReplicaSpec(
            name=f"seed{int(s)}", seed=int(s), temperature=temperature,
            n_steps=n_steps,
        )
        for s in seeds
    ]


def temperature_ladder(
    temperatures: Iterable[float],
    n_steps: int = 100,
    seed: int = 0,
) -> List[ReplicaSpec]:
    """One replica per temperature, all from one seed (Arrhenius ladder)."""
    return [
        ReplicaSpec(
            name=f"T{float(t):g}", seed=int(seed), temperature=float(t),
            n_steps=n_steps,
        )
        for t in temperatures
    ]


def alloy_engine_factory(
    box: int,
    potential,
    tet,
    cu_fraction: float,
    vacancy_fraction: float = VACANCY_CONCENTRATION,
) -> Callable[[ReplicaSpec], TensorKMCEngine]:
    """Engine builder matching the CLI's ``run`` construction per spec.

    Every replica gets its own lattice (disorder drawn from
    ``default_rng(spec.seed)``) and its own engine RNG
    (``default_rng(spec.seed + 1)``); the potential and TET are shared.
    """

    def build(spec: ReplicaSpec) -> TensorKMCEngine:
        lattice = LatticeState((box,) * 3)
        lattice.randomize_alloy(
            np.random.default_rng(spec.seed), cu_fraction=cu_fraction,
            vacancy_fraction=vacancy_fraction,
        )
        return TensorKMCEngine(
            lattice, potential, tet, temperature=spec.temperature,
            rng=np.random.default_rng(spec.seed + 1),
        )

    return build


def occupancy_digest(lattice: LatticeState) -> str:
    """SHA-256 fingerprint of a lattice's occupancy (shape included).

    Two engines that executed the same trajectory have equal digests; the
    bit-identity tests and the campaign benchmark compare these instead of
    hauling whole occupancy arrays around.
    """
    h = hashlib.sha256()
    h.update(np.asarray(lattice.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(np.asarray(lattice.occupancy)).tobytes())
    return h.hexdigest()


@dataclass
class ReplicaResult:
    """Outcome of one replica: its spec, the events it executed, whether it
    froze before exhausting its budget, its final clock and occupancy
    digest, and the engine's full :meth:`summary` counters."""

    spec: ReplicaSpec
    executed: int
    frozen: bool
    time: float
    digest: str
    summary: Dict[str, float] = field(repr=False, default_factory=dict)


class _Replica:
    """In-flight bookkeeping for one admitted replica."""

    __slots__ = ("index", "spec", "engine", "executed", "frozen")

    def __init__(self, index: int, spec: ReplicaSpec, engine) -> None:
        self.index = index
        self.spec = spec
        self.engine = engine
        self.executed = 0
        self.frozen = False

    @property
    def done(self) -> bool:
        return self.frozen or self.executed >= self.spec.n_steps


class ReplicaCampaign:
    """Run a list of :class:`ReplicaSpec` through one shared hot loop.

    Parameters
    ----------
    specs:
        The replicas, in result order.
    engine_factory:
        ``spec -> engine`` builder (see :func:`alloy_engine_factory`).
        Called lazily: a queued spec costs nothing until a slot frees up.
    max_in_flight:
        How many replicas run concurrently (default: all of them).  When
        a replica completes — budget exhausted or frozen — the next queued
        spec is admitted in its place at the start of the following round.

    Every admitted replica's evaluator is attached to *one* campaign-wide
    :class:`~repro.core.rowcache.RowEnergyCache` in place of its own — a
    seed sweep's replicas revisit the same dilute-matrix environments, and
    a temperature ladder shares *energies* outright (rates differ, the
    cached energies do not) — so the memo spans replicas and hot swaps.
    Every admitted replica's vacancy cache likewise moves into the
    campaign's :attr:`pool`; a retired replica's block is freed for the
    next newcomer.
    """

    def __init__(
        self,
        specs: Sequence[ReplicaSpec],
        engine_factory: Callable[[ReplicaSpec], SerialAKMCBase],
        max_in_flight: Optional[int] = None,
    ) -> None:
        specs = list(specs)
        if not specs:
            raise ValueError("a campaign needs at least one replica spec")
        if len({s.name for s in specs}) != len(specs):
            raise ValueError("replica names must be unique")
        if max_in_flight is None:
            max_in_flight = len(specs)
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be >= 1, got {max_in_flight}")
        self.specs = specs
        self.engine_factory = engine_factory
        self.max_in_flight = int(max_in_flight)
        #: Aggregate wall-time attribution over :data:`CAMPAIGN_PHASES`
        #: (per-replica select/hop/invalidate timing stays on each engine's
        #: own profiler, surfaced through :attr:`ReplicaResult.summary`).
        self.profiler = PhaseProfiler()
        self.rounds = 0
        self.admitted = 0
        self.shared_batches = 0
        self.shared_rows = 0
        #: ``(vacancy, region row)`` pairs re-rated by the shared calls.
        self.shared_pairs = 0
        self.max_shared_batch = 0
        self._evaluator = None  # batch-compatibility reference
        #: The campaign-wide shared row-energy cache.
        self.row_cache = RowEnergyCache()
        #: The slot pool every in-flight replica's cache lives in (made
        #: at the first admission, sized by its TET).
        self.pool: Optional[SlotPool] = None

    def run(self) -> List[ReplicaResult]:
        """Execute the campaign; results are ordered like ``specs``."""
        queue = deque(enumerate(self.specs))
        active: List[_Replica] = []
        results: List[Optional[ReplicaResult]] = [None] * len(self.specs)

        while queue or active:
            # Hot swap: fill freed slots from the queue before the round's
            # shared batch, so a retired replica's rows are replaced by the
            # newcomer's cold-start rows in the very next fused call.  A
            # replica whose budget is already spent is never stepped.
            with self.profiler.phase("admit"):
                while queue and len(active) < self.max_in_flight:
                    rep = self._admit(*queue.popleft())
                    if rep.done:
                        self._retire(rep, results)
                    else:
                        active.append(rep)
            if not active:
                break

            # One refresh for all replicas: one plan over the pool, one
            # potential call (row dedup across replica boundaries), one
            # splice and store; each replica updates its own tree.
            with self.profiler.phase("refresh"):
                plans = refresh_many([rep.engine.kernel for rep in active])
                if plans:
                    slots = sum(p.slots.size for p in plans)
                    self.shared_batches += 1
                    self.shared_rows += slots
                    self.shared_pairs += sum(p.pair_b.size for p in plans)
                    self.max_shared_batch = max(self.max_shared_batch, slots)

            # One KMC event per replica; refresh inside step() finds
            # nothing stale, so each replica's RNG draw order matches its
            # solo run exactly.
            with self.profiler.phase("step"):
                for rep in active:
                    try:
                        rep.engine.step()
                        rep.executed += 1
                    except NoMovesError:
                        rep.frozen = True
            self.rounds += 1

            retired = [rep for rep in active if rep.done]
            for rep in retired:
                self._retire(rep, results)
                active.remove(rep)

        assert all(r is not None for r in results)
        return results  # type: ignore[return-value]

    def summary(self) -> Dict[str, float]:
        """Aggregate campaign counters + phase timings (flat namespace)."""
        out = {
            "replicas": len(self.specs),
            "rounds": self.rounds,
            "admitted": self.admitted,
            "shared_batches": self.shared_batches,
            "shared_rows": self.shared_rows,
            "shared_pairs": self.shared_pairs,
            "max_shared_batch": self.max_shared_batch,
        }
        return merge_disjoint(
            out, self.row_cache.summary(), self.profiler.summary()
        )

    # ------------------------------------------------------------------
    def _result(self, rep: _Replica) -> ReplicaResult:
        return ReplicaResult(
            spec=rep.spec,
            executed=rep.executed,
            frozen=rep.frozen,
            time=float(rep.engine.time),
            digest=occupancy_digest(rep.engine.lattice),
            summary=rep.engine.summary(),
        )

    def _retire(self, rep: _Replica, results: list) -> None:
        """Record a finished replica and free its block of the pool."""
        results[rep.index] = self._result(rep)
        self.pool.release(rep.engine.kernel.cache)

    def _admit(self, index: int, spec: ReplicaSpec) -> _Replica:
        engine = self.engine_factory(spec)
        if self._evaluator is None:
            self._evaluator = engine.evaluator
            tet = engine.evaluator.tet
            self.pool = SlotPool(tet.n_all, tet.n_region)
        elif not self._evaluator.batch_compatible(engine.evaluator):
            raise ValueError(
                f"replica {spec.name!r} is not batch-compatible with the "
                "campaign (potential / element count / TET mismatch)"
            )
        # One cache for the whole campaign: every admitted engine (and the
        # shared `_evaluator` — it belongs to the first of them) consults
        # the same memo, so environments seen by any replica are hits for
        # all.
        engine.evaluator.attach_row_cache(self.row_cache)
        # One slot pool too: the round's refresh plans, splices and stores
        # every replica's stale slots in one pass over it.
        self.pool.admit(engine.kernel.cache)
        self.admitted += 1
        return _Replica(index, spec, engine)
