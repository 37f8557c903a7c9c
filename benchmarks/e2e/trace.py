"""Span recording around the public entry points of every layer.

Everything here lives in the benchmark: the program under test is patched
from outside (class attributes and module functions are replaced by timing
wrappers inside the measured child), so ``src/repro`` carries no tracing
code and a later change may move tracing inside the program on its own
terms.

A span is ``(name, start, end, unit)`` while the program runs; the unit is
the index of the event / cycle the span belongs to.  Spans stay in memory;
when the child exits they get an id and their parent (the innermost span
that encloses them — one thread, so spans nest) and are aggregated.  A
layer's *self time* is its span's duration minus the durations of its
direct child spans, so self times telescope: summed over every span under
a root they equal the root's duration exactly.
"""

from __future__ import annotations

from array import array
import hashlib
import importlib
import os
import signal
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Recorder", "Stopwatch", "Wrap", "WRAPS", "install", "make_quantum"]

#: Aggregation windows, cut by the stopwatch's clock: ``setup`` is everything
#: up to the return of the first unit (cold rebuild included), ``tail``
#: everything after the return of the last unit (analysis, final checkpoint,
#: printing), ``steady`` what lies between — the window per-event numbers
#: are taken over.
WINDOWS = ("setup", "steady", "tail")


class Recorder:
    """In-memory span + counter store of one traced child."""

    def __init__(self) -> None:
        self.names: List[str] = []
        #: Four doubles per span (name index, start, end, unit), flat: a
        #: list of a few hundred thousand tuples would make every full
        #: garbage collection of the traced child walk them all.
        self.spans = array("d")
        #: Completed units so far == unit index of whatever runs now.
        self.units = 0
        #: Boundary counters (see the ``_count_*`` hooks) and their value
        #: when the first unit returned, so steady = final - setup.
        self.counts: Dict[str, float] = {}
        self.setup_counts: Dict[str, float] = {}
        #: Program objects a hook saw, by kind then ``id``; their own
        #: statistics are read once at exit (:meth:`object_stats`).
        self.objects: Dict[str, Dict[int, object]] = {}
        #: ``unit -> {rank: events}`` from the ``run_sector`` boundary.
        self.sector_events: Dict[int, Dict[int, int]] = {}
        self.missing: List[str] = []

    def name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def unit_done(self) -> None:
        if self.units == 0:
            self.setup_counts = dict(self.counts)
        self.units += 1

    def keep(self, kind: str, obj: object) -> None:
        self.objects.setdefault(kind, {})[id(obj)] = obj

    # ------------------------------------------------------------------
    def wrap(self, fn: Callable, name: str,
             count: Optional[Callable] = None) -> Callable:
        """Timing wrapper around ``fn`` recording one span per call."""
        idx = self.name_index(name)
        record = self.spans.extend
        rec = self

        if count is None:
            def traced(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record((idx, t0, perf_counter(), rec.units))
        else:
            def traced(*args, **kwargs):
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    record((idx, t0, perf_counter(), rec.units))
                count(rec, args, result)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # ------------------------------------------------------------------
    def aggregate(self, t_first: float, t_last: float) -> Dict[str, object]:
        """Per-name calls / total / self seconds in each window.

        ``t_first`` / ``t_last`` are the stopwatch stamps of the first and
        the last unit.  A span's time is split between the windows by the
        clock, so the loop spans that contain every unit (``cli:main``,
        ``core.engine:run`` ...) put their per-unit glue in ``steady``; a
        call counts in the window it returned in.

        ``phase_sums`` holds, for every ``parent>child`` name pair that
        occurs, the summed duration of those direct children — what the
        PhaseProfiler cross-check compares the CLI's phase lines against.
        """
        table: Dict[str, Dict[str, Dict[str, float]]] = {
            name: {w: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                   for w in WINDOWS}
            for name in self.names
        }
        out = {"spans": table, "n_spans": len(self.spans) // 4,
               "n_steady_spans": 0, "roots_s": 0.0, "self_sum_s": 0.0,
               "phase_sums": {}}
        if not self.spans:
            return out
        name, t0, t1, _, parent = self._nested()
        has_parent = parent >= 0
        n_names = len(self.names)
        edges = (-np.inf, t_first, t_last, np.inf)
        closed_in = np.searchsorted(edges[1:3], t1)
        self_sum = 0.0
        for w, label in enumerate(WINDOWS):
            overlap = np.clip(
                np.minimum(t1, edges[w + 1]) - np.maximum(t0, edges[w]),
                0.0, None,
            )
            self_s = overlap - np.bincount(
                parent[has_parent], weights=overlap[has_parent],
                minlength=len(overlap),
            )
            self_sum += float(self_s.sum())
            calls = np.bincount(name[closed_in == w], minlength=n_names)
            total = np.bincount(name, weights=overlap, minlength=n_names)
            selfs = np.bincount(name, weights=self_s, minlength=n_names)
            for i, span_name in enumerate(self.names):
                table[span_name][label] = {
                    "calls": int(calls[i]),
                    "total_s": float(total[i]),
                    "self_s": float(selfs[i]),
                }
        dur = t1 - t0
        pair = name[parent[has_parent]] * n_names + name[has_parent]
        sums = np.bincount(pair, weights=dur[has_parent])
        out.update(
            n_steady_spans=int(np.count_nonzero(closed_in == 1)),
            roots_s=float(dur[~has_parent].sum()),
            self_sum_s=self_sum,
            phase_sums={
                f"{self.names[p // n_names]}>{self.names[p % n_names]}":
                    float(sums[p])
                for p in np.flatnonzero(sums)
            },
        )
        return out

    @staticmethod
    def span_cost_s(calls: int = 20000) -> float:
        """Seconds one span adds to a call, measured on a no-op right now
        (a throwaway recorder, so the probe leaves no spans behind)."""
        def noop():
            return None

        wrapped = Recorder().wrap(noop, "probe")
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        t1 = perf_counter()
        for _ in range(calls):
            noop()
        t2 = perf_counter()
        return ((t1 - t0) - (t2 - t1)) / calls

    def _nested(self):
        """Span columns in start order — the row number is the span's id —
        with each span's parent id (-1 for a root)."""
        arr = np.frombuffer(self.spans, dtype=np.float64).reshape(-1, 4)
        # Start order, the longer span first where two start together.
        arr = arr[np.lexsort((-arr[:, 2], arr[:, 1]))]
        t0, t1 = arr[:, 1], arr[:, 2]
        parent = np.full(len(arr), -1, dtype=np.int64)
        open_spans: List[int] = []     # ids of the enclosing spans
        ends: List[float] = []         # and when each of them ends
        for i, (start, end) in enumerate(zip(t0.tolist(), t1.tolist())):
            while ends and ends[-1] <= start:
                ends.pop()
                open_spans.pop()
            if open_spans:
                parent[i] = open_spans[-1]
            open_spans.append(i)
            ends.append(end)
        return (arr[:, 0].astype(np.int64), t0, t1,
                arr[:, 3].astype(np.int64), parent)

    def unit_trees(self, every: int = 50) -> List[Dict[str, object]]:
        """Full span records of every ``every``-th unit, start-ordered."""
        if not self.spans:
            return []
        name, t0, t1, unit, parent = self._nested()
        return [
            {"id": int(i), "name": self.names[name[i]], "start": float(t0[i]),
             "end": float(t1[i]), "parent": int(parent[i]),
             "unit": int(unit[i])}
            for i in np.flatnonzero(unit % every == 0)
        ]

    def object_stats(self) -> Dict[str, Optional[float]]:
        """Statistics the kept program objects hold, summed per kind.

        An attribute a later change renamed reads ``None`` (the metrics
        built on it then read ``null``), never an error.
        """
        def total(kind: str, read: Callable[[object], float]):
            try:
                return float(sum(read(o) for o in
                                 self.objects.get(kind, {}).values()))
            except (AttributeError, TypeError, KeyError):
                return None

        return {
            "rowcache.entries": total("rowcache", len),
            "rowcache.resident_bytes":
                total("rowcache", lambda c: c.memory_bytes()),
            "rowcache.evictions": total("rowcache", lambda c: c.evictions),
            "vacancy_cache.reuses":
                total("vacancy_cache", lambda c: c.stats.reuses),
            "vacancy_cache.rebuilds":
                total("vacancy_cache", lambda c: c.stats.rebuilds),
            "vacancy_cache.invalidations":
                total("vacancy_cache", lambda c: c.stats.invalidations),
            "vacancy_cache.memory_bytes":
                total("vacancy_cache", lambda c: c.memory_bytes()),
            "kernel.selections":
                total("kernel", lambda k: k.stats.selections),
            "kernel.selection_depth":
                total("kernel", lambda k: k.stats.selection_depth),
            "ranks.rejected": total("rank", lambda r: r.rejected),
            "campaign.admit_s":
                total("campaign", lambda c: c.profiler.seconds["admit"]),
            "campaign.rounds": total("campaign", lambda c: c.rounds),
            "campaign.shared_rows": total("campaign", lambda c: c.shared_rows),
            "campaign.max_shared_batch":
                total("campaign", lambda c: c.max_shared_batch),
        }


# ----------------------------------------------------------------------
# Counters taken at the same boundaries as the spans
# ----------------------------------------------------------------------
def _add(rec: Recorder, key: str, value: float) -> None:
    rec.counts[key] = rec.counts.get(key, 0.0) + value


def _count_infer(rec, args, result) -> None:
    _add(rec, "nnp.rows", len(args[1]))


def _count_gemm(rec, args, result) -> None:
    kernel, x = args[0], args[1]
    m = int(x.shape[0])
    tile = int(kernel.plan.m_tile)
    ch = kernel.channels
    _add(rec, "gemm.rows", m)
    _add(rec, "gemm.padded_rows", -(-m // tile) * tile)
    _add(rec, "gemm.flops",
         2.0 * m * sum(a * b for a, b in zip(ch[:-1], ch[1:])))


def _count_eval_batch(rec, args, result) -> None:
    evaluator, vets = args[0], args[1]
    _add(rec, "eval.rows", len(vets) * 9 * evaluator.tet.n_region)


def _count_eval_rows(rec, args, result) -> None:
    _add(rec, "eval.rows", len(args[2]) * 9)
    _add(rec, "delta.dirty_rows", len(args[2]))


def _count_lookup(rec, args, result) -> None:
    rec.keep("rowcache", args[0])
    _add(rec, "rowcache.keys", len(args[1]))
    _add(rec, "rowcache.hits", int(np.count_nonzero(result[0])))


def _count_insert(rec, args, result) -> None:
    _add(rec, "rowcache.inserted", len(args[1]))


def _count_stale(rec, args, result) -> None:
    rec.keep("kernel", args[0])
    if len(result):
        _add(rec, "kernel.stale_rows", len(result))
        _add(rec, "kernel.stale_batches", 1)


def _keep_vacancy_cache(rec, args, result) -> None:
    rec.keep("vacancy_cache", args[0])


def _count_run_sector(rec, args, result) -> None:
    rank = args[0]
    rec.keep("rank", rank)
    # One hop records two changed sites.
    rec.sector_events.setdefault(rec.units, {})[int(rank.rank)] = (
        len(result) // 2
    )


def _count_save(rec, args, result) -> None:
    rec.counts["checkpoint.archive_bytes"] = float(os.path.getsize(args[0]))


def _keep_campaign(rec, args, result) -> None:
    rec.keep("campaign", args[0])


@dataclass(frozen=True)
class Wrap:
    """One patch site: ``module.qualname`` recorded as span ``name``."""

    name: str
    module: str
    qualname: str
    #: ``(recorder, args, result)`` hook run after each successful call.
    count: Optional[Callable] = None


def _w(layer: str, module: str, cls: str, methods: Sequence[str], **kw):
    return [
        Wrap(f"{layer}:{m.strip('_')}", module, f"{cls}.{m}" if cls else m, **kw)
        for m in methods
    ]


#: Layer = module path under ``src/repro``; the span name is
#: ``<layer>:<entry point>``.
WRAPS: Tuple[Wrap, ...] = tuple(
    _w("core.tet", "repro.core.tet", "TripleEncoding", ["__init__"])
    + _w("lattice", "repro.lattice.occupancy", "LatticeState",
         ["__init__", "randomize_alloy", "ids_from_half", "half_coords",
          "neighbor_ids", "swap"])
    # Not LocalWindow.site_from_half: the two accessors below call it once
    # each, 13 times per event on parallel4, and a span costs about 1.2 us.
    + _w("lattice", "repro.lattice.domain", "LocalWindow",
         ["species_at_half", "set_species_at_half"])
    + _w("nnp.model", "repro.nnp.model", "NNPotential", ["load"])
    + _w("nnp.model", "repro.nnp.model", "NNPotential",
         ["energies_from_counts", "energies_from_counts_fused"],
         count=_count_infer)
    + _w("operators.tilegemm", "repro.operators.tilegemm", "TileGEMMKernel",
         ["__call__"], count=_count_gemm)
    + _w("core.vacancy_system", "repro.core.vacancy_system",
         "VacancySystemEvaluator", ["evaluate_batch"],
         count=_count_eval_batch)
    + _w("core.vacancy_system", "repro.core.vacancy_system",
         "VacancySystemEvaluator", ["evaluate_rows"], count=_count_eval_rows)
    + _w("core.vacancy_system", "repro.core.vacancy_system",
         "VacancySystemEvaluator",
         ["evaluate_batch_segments", "trial_vets_batch",
          "region_features_counts", "_dedup_rows"])
    + [Wrap("core.rowcache:lookup", "repro.core.rowcache",
            "RowEnergyCache.lookup", _count_lookup),
       Wrap("core.rowcache:insert", "repro.core.rowcache",
            "RowEnergyCache.insert", _count_insert)]
    + _w("core.rates", "repro.core.rates", "RateModel", ["rates_batch"])
    + _w("core.delta", "repro.core.delta", "DeltaRebuilder",
         ["build_entries", "patch_entries"])
    + _w("core.vacancy_cache", "repro.core.vacancy_cache", "VacancyCache",
         ["store_batch", "store_rates"], count=_keep_vacancy_cache)
    + _w("core.vacancy_cache", "repro.core.vacancy_cache", "VacancyCache",
         ["invalidate_slots", "invalidate_near", "patch_vets"])
    + _w("core.propensity", "repro.core.propensity", "FenwickPropensity",
         ["update_many", "update", "select"])
    + _w("core.kernel", "repro.core.kernel", "EventKernel", ["stale_batch"],
         count=_count_stale)
    + _w("core.kernel", "repro.core.kernel", "EventKernel",
         ["refresh", "apply_refresh", "select", "move", "invalidate_near",
          "set_active", "deactivate"])
    + _w("core.engine", "repro.core.engine", "SerialAKMCBase",
         ["__init__", "run", "step"])
    + _w("parallel.engine", "repro.parallel.engine", "SublatticeKMC",
         ["__init__", "cycle", "gather_global", "check_ghost_consistency"])
    + [Wrap("parallel.engine:run_sector", "repro.parallel.engine",
            "RankState.run_sector", _count_run_sector),
       Wrap("parallel.engine:rescan_vacancies", "repro.parallel.engine",
            "RankState.rescan_vacancies")]
    + _w("parallel.ghost", "repro.parallel.ghost", "GhostExchanger",
         ["send_updates", "apply_updates"])
    + _w("parallel.comm", "repro.parallel.comm", "SimComm",
         ["send", "recv_all"])
    + _w("parallel.executor", "repro.parallel.executor", "InlineExecutor",
         ["run_sectors", "apply_exchange"])
    + _w("parallel.executor", "repro.parallel.executor", "ProcessExecutor",
         ["run_sectors", "apply_exchange"])
    + _w("parallel.recovery", "repro.parallel.recovery", "",
         ["run_resilient"])
    + _w("campaign.engine", "repro.campaign.engine", "ReplicaCampaign",
         ["run"], count=_keep_campaign)
    + _w("io.checkpoint", "repro.io.checkpoint", "",
         ["save_checkpoint", "save_parallel_checkpoint"], count=_count_save)
    + _w("analysis", "repro.analysis.precipitation", "",
         ["analyse_precipitation"])
)


def _patch(module, qualname: str, make: Callable[[Callable], Callable]) -> bool:
    """Replace ``module.qualname`` by ``make(original)``; False if absent.

    Module-level functions are also replaced wherever another ``repro``
    module imported them by name (``from .x import f``).
    """
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    if owner is None:
        return False
    raw = vars(owner).get(attr)
    if raw is None:
        return False
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(make(raw.__func__))
    else:
        wrapped = make(raw)
    setattr(owner, attr, wrapped)
    if not owner_name:
        for name, mod in list(sys.modules.items()):
            if name.startswith("repro") and getattr(mod, attr, None) is raw:
                setattr(mod, attr, wrapped)
    return True


def install(rec: Recorder, wraps: Sequence[Wrap] = WRAPS) -> List[str]:
    """Install every wrapper; returns the span names that found no target.

    A missing target (a method a later change renamed or deleted) is not an
    error: its span name lands in ``rec.missing``, the metrics built on it
    read ``null``, and the run goes on.
    """
    installed = set()
    wanted = []
    for w in wraps:
        if w.name not in wanted:
            wanted.append(w.name)

        def make(fn, w=w):
            return rec.wrap(fn, w.name, w.count)

        try:
            module = importlib.import_module(w.module)
        except ImportError:
            continue
        if _patch(module, w.qualname, make):
            installed.add(w.name)
    rec.missing = [name for name in wanted if name not in installed]
    return rec.missing


#: Seconds between two calibration samples of a child (about 1.5 % of a
#: run).
CALIBRATION_INTERVAL_S = 0.04


def make_quantum() -> Callable[[], object]:
    """The calibration quantum: a fixed ~0.3 ms of NumPy + Python work.

    The bench box is a shared host whose speed drifts by +-20 % over
    seconds to minutes, for this loop as for the program.  Every child runs
    the quantum, twice, every :data:`CALIBRATION_INTERVAL_S` from its start
    to its end (:meth:`Stopwatch.start_calibration`); the harness divides
    measured time by how slow the pair was at that moment
    (``harness.reference_clock``).

    The mix follows the program's: element-wise NumPy, gathers, small
    GEMMs, and interpreter object traffic (dict, tuples, NumPy scalars).
    It holds no register-only loop: measured against the four workloads
    such a loop barely notices the host's slow phases and diluted the
    correction.  The quantum is part of the benchmark's definition:
    changing it rescales every reported time.
    """
    rng = np.random.default_rng(0)
    a = rng.random((96, 96), dtype=np.float32)
    big = rng.integers(0, 3, size=1 << 20, dtype=np.int8)
    idx = rng.integers(0, 1 << 20, size=(3, 4096))
    w = rng.random((64, 128), dtype=np.float32)

    def quantum():
        b = a
        for _ in range(8):
            b = b * a + a
        for rows in idx:
            x = big[rows].reshape(64, 64).astype(np.float32)
        for _ in range(6):
            y = x @ w
        d = {}
        for i in range(400):
            d[i] = (i, y)
        z = np.asarray([np.int64(i) for i in range(80)])
        return b, d, z

    return quantum


class Stopwatch:
    """All that every measured child carries, traced or not.

    It sits on the driver's unit method (``step`` or ``cycle``).  After
    every unit it appends ``perf_counter()`` and the unit's event count (1
    for a step, ``CycleStats.events`` for a cycle) and checks that the
    driver's simulated clock is finite and did not run backwards - about
    0.4 us on units of 700 us and more.  It also remembers each driver
    object it sees, so the final occupancy that is digested is the one the
    timed loop produced.  Beside that it owns the calibration timer.
    """

    def __init__(self, rec: Optional[Recorder] = None) -> None:
        self.rec = rec
        self.stamps: List[float] = []
        self.events: List[int] = []
        self.bad_clock: List[int] = []
        self.drivers: Dict[int, object] = {}
        #: ``id(driver) -> species counts`` when the driver was first seen.
        self._species: Dict[int, np.ndarray] = {}
        #: ``id(driver) -> (occupancy sha256, species counts)`` at the end.
        self._final: Dict[int, Tuple[str, np.ndarray]] = {}
        self.errors: List[str] = []
        #: Calibration samples: start stamps and durations.
        self.cal_t: List[float] = []
        self.cal_d: List[float] = []
        # In a traced child a quantum is a span of its own, nobody's self
        # time.
        self._quantum = (make_quantum() if rec is None
                         else rec.wrap(make_quantum(), "host:calibrate"))

    def calibrate(self, *_signal) -> None:
        """Run the calibration quantum twice now and record the pair.

        The first meets the caches as the program left them, the second its
        own working set.  Timed together they followed the four workloads
        through the host's phases better than either alone (96 children:
        spread of the corrected ``events_per_s`` 5-7 % against 5-9 % for
        the first and 8-17 % for the second)."""
        t0 = perf_counter()
        self._quantum()
        self._quantum()
        self.cal_t.append(t0)
        self.cal_d.append(perf_counter() - t0)

    def start_calibration(self) -> None:
        """One sample now, then one every :data:`CALIBRATION_INTERVAL_S`
        of wall time until :meth:`stop_calibration`.

        A ``SIGALRM`` timer drives it: Python runs the handler between two
        bytecodes of whatever the main thread is doing, so set-up (imports,
        the cold rebuild), which has no unit boundaries, is sampled like
        the steady state, and every quantum meets the caches the program
        left it.  ``repro`` uses no signals and the default drivers fork
        no workers.
        """
        self.calibrate()
        signal.signal(signal.SIGALRM, self.calibrate)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S,
                         CALIBRATION_INTERVAL_S)

    def stop_calibration(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        self.calibrate()

    def install(self, unit: Tuple[str, str, str]) -> None:
        """Patch ``(module, class, method)``; after :func:`install`, so in a
        traced child the stamp is taken once the unit's own span closed."""
        cls = getattr(importlib.import_module(unit[0]), unit[1])
        orig = getattr(cls, unit[2])
        stamps, events, bad = self.stamps, self.events, self.bad_clock
        drivers, rec = self.drivers, self.rec
        clocks: Dict[int, float] = {}
        inf = float("inf")

        def stopwatch(driver, *args, **kwargs):
            result = orig(driver, *args, **kwargs)
            stamps.append(perf_counter())
            events.append(getattr(result, "events", 1))
            key = id(driver)
            clock = driver.time
            if not clocks.get(key, 0.0) <= clock < inf:
                bad.append(len(stamps) - 1)
            clocks[key] = clock
            if key not in drivers:
                self._first_sight(driver)
            if rec is not None:
                rec.unit_done()
            return result

        setattr(cls, unit[2], stopwatch)

    # ------------------------------------------------------------------
    @staticmethod
    def _occupancy(driver) -> np.ndarray:
        if hasattr(driver, "gather_global"):
            return np.asarray(driver.gather_global().occupancy)
        return np.asarray(driver.lattice.occupancy)

    def _first_sight(self, driver) -> None:
        self.drivers[id(driver)] = driver
        if hasattr(driver, "lattice"):
            self._species[id(driver)] = np.bincount(self._occupancy(driver))
        close = getattr(driver, "close", None)
        if close is not None:
            # A driver that owns workers must be digested before it shuts
            # them down.
            def closing(*args, **kwargs):
                self._finish(driver)
                return close(*args, **kwargs)

            driver.close = closing

    def _finish(self, driver) -> None:
        if id(driver) in self._final:
            return
        try:
            occ = self._occupancy(driver)
        except Exception as exc:  # the run is then reported as failed
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return
        digest = hashlib.sha256(np.ascontiguousarray(occ).tobytes())
        self._final[id(driver)] = (digest.hexdigest(), np.bincount(occ))

    def finish(self) -> Dict[str, object]:
        """Digest, species check and anomaly count over every driver seen."""
        for driver in self.drivers.values():
            self._finish(driver)
        digests = [self._final[k][0] for k in self.drivers if k in self._final]
        complete = bool(digests) and len(digests) == len(self.drivers)
        conserved = all(
            np.array_equal(first, self._final[k][1])
            for k, first in self._species.items() if k in self._final
        )
        return {
            "digest": (
                hashlib.sha256("".join(digests).encode()).hexdigest()
                if complete else None
            ),
            "species_conserved": bool(conserved and complete),
            "anomalies": int(sum(
                getattr(d, "total_anomalies", 0) for d in self.drivers.values()
            )),
            "drivers": len(self.drivers),
            "errors": self.errors,
        }
