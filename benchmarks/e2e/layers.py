"""The metric catalogue: end-to-end metrics with their bounds, per-layer
metrics with the layer they belong to, what each is predicted to move, and
how each is computed from a traced child.

``BENCHMARK.json`` is :func:`manifest` written to disk; the self-test fails
when the two drift apart.

Per-layer conventions: a layer is a module path under ``src/repro``; a
``*_us`` metric is the summed *self* time of the layer's spans in the steady
window (every unit but the first) divided by the events of that window;
``*_s`` set-up metrics are span totals in the set-up window (up to the
return of the first unit).  Like the end-to-end times they are in reference
seconds (the traced child's times x its ``harness.host_speed``); the
``host.*`` metrics carry the raw numbers and the host speed.  Counts come
from hooks on the same span boundaries or from the statistics of the
program objects those hooks saw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from benchmarks.e2e import verify
from benchmarks.e2e.workloads import BASE_SECONDS, WORKLOADS

__all__ = ["END_TO_END", "PER_LAYER", "TraceView", "manifest", "per_layer"]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median the metric may worsen by.
    bound: float


#: Definitions, and what the bounds were sized on, are in README.md.
#: ``failed_share`` (events of failed repeats / events requested) is
#: reported beside these and judged by ``compare.py`` - any increase
#: regresses - but is not listed: the contract wants metrics that are never
#: 0 and this one is 0 on a healthy run.  The contract line carries it as
#: ``attempted`` / ``failed``.
END_TO_END = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("events_per_s", "1/s", "higher", 0.25),
    EndToEnd("wall_s", "s", "lower", 0.20),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.05),
)


class Missing(Exception):
    """A span this metric is built on was not installed."""


class TraceView:
    """Read access to one traced child for the metric functions."""

    def __init__(self, traced: Dict[str, object],
                 plain_segments: Dict[str, np.ndarray],
                 plain_events_per_s: Optional[float],
                 traced_events_per_s: Optional[float],
                 host_speed: float,
                 plain_raw: Optional[Dict[str, Dict[str, float]]]) -> None:
        """``host_speed``: reference seconds per measured second of the
        traced child; ``plain_raw``: the uncorrected statistics of the
        untraced repeats (``end_to_end()["raw"]``)."""
        res = traced["result"]
        self.res = res
        self.trace = res["trace"]
        self.table = self.trace["spans"]
        self.missing = set(self.trace["missing"])
        self.cli = verify.cli_values(res["cli_output"])
        self.command = traced["argv"][0]
        events = res["events"]
        self.units = len(events)
        self.events_total = sum(events)
        self.events_steady = sum(events[1:])
        self.units_steady = self.units - 1
        self.steady_seconds = res["stamps"][-1] - res["stamps"][0]
        self.segments = plain_segments
        self.plain_rate = plain_events_per_s
        self.traced_rate = traced_events_per_s
        self.speed = host_speed
        self.raw = plain_raw

    # -- spans ---------------------------------------------------------
    def _sum(self, names: Sequence[str], field: str,
             windows: Sequence[str]) -> float:
        total = 0.0
        for name in names:
            if name in self.missing or name not in self.table:
                raise Missing(name)
            total += sum(self.table[name][w][field] for w in windows)
        return total if field == "calls" else total * self.speed

    def us(self, *names: str) -> float:
        """Self time per steady event, microseconds."""
        return _ratio(
            1e6 * self._sum(names, "self_s", ("steady",)), self.events_steady)

    def setup_s(self, *names: str) -> float:
        return self._sum(names, "total_s", ("setup",))

    def total_s(self, *names: str) -> float:
        return self._sum(names, "total_s", ("setup", "steady", "tail"))

    def calls(self, *names: str, windows=("steady",)) -> float:
        return self._sum(names, "calls", windows)

    # -- counters ------------------------------------------------------
    def count(self, key: str) -> float:
        """Boundary counter over the steady + tail windows."""
        return (self.trace["counts"].get(key, 0.0)
                - self.trace["setup_counts"].get(key, 0.0))

    def count_all(self, key: str) -> float:
        return self.trace["counts"].get(key, 0.0)

    def stat(self, key: str) -> float:
        value = self.trace["objects"].get(key)
        if value is None:
            raise Missing(key)
        return value

    def cli_float(self, key: str) -> float:
        if key not in self.cli:
            raise Missing(key)
        return float(self.cli[key])

    def raw_median(self, key: str) -> float:
        if self.raw is None:
            raise Missing(key)
        return self.raw[key]["median"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


_GATHER = ("lattice:ids_from_half", "lattice:half_coords",
           "lattice:neighbor_ids", "lattice:species_at_half")
_INFER = ("nnp.model:energies_from_counts",
          "nnp.model:energies_from_counts_fused")
_GEMM = "operators.tilegemm:call"


def _unique_rows(t: TraceView) -> float:
    # Unique rows = keys probed in the row cache + rows inferred without
    # going through it (inserted rows were probed first).
    return (t.count("rowcache.keys") + t.count("nnp.rows")
            - t.count("rowcache.inserted"))


def _rank_imbalance(t: TraceView) -> float:
    per_cycle = [c for c in t.trace["sector_events"] if sum(c)]
    return float(np.mean([max(c) / np.mean(c) for c in per_cycle])) \
        if per_cycle else 0.0


def _trace_overhead(t: TraceView) -> float:
    if not (t.traced_rate and t.plain_rate):
        raise Missing("events_per_s")
    return 1.0 - t.traced_rate / t.plain_rate


def _percentile(values: np.ndarray, q: float) -> float:
    return 1e3 * float(np.percentile(values, q)) if len(values) else 0.0


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    #: ``-> metric @ workload`` it should move; ``0 @ workload`` where the
    #: prediction is no change.
    moves: str
    fn: Callable[[TraceView], float]


_m = LayerMetric

_ALL = "all workloads"

PER_LAYER: Sequence[LayerMetric] = (
    # -- cli -----------------------------------------------------------
    _m("cli.import_s", "s", "lower", f"-> setup_s @ {_ALL}",
       lambda t: t.res["import_s"]),
    _m("cli.unattributed_share", "ratio", "lower",
       "must stay <= 0.05: the part of cli.main no layer span covers",
       lambda t: _ratio(
           t._sum(["cli:main"], "self_s", ("setup", "steady", "tail")),
           t.total_s("cli:main"))),
    # -- core.tet ------------------------------------------------------
    _m("core.tet.build_s", "s", "lower",
       "-> setup_s @ serial_gemm; 0 @ serial_dense",
       lambda t: t.setup_s("core.tet:init")),
    # -- lattice -------------------------------------------------------
    _m("lattice.build_s", "s", "lower", "-> setup_s @ serial_dense",
       lambda t: t.setup_s("lattice:init", "lattice:randomize_alloy")),
    _m("lattice.gather_us", "us", "lower",
       "-> events_per_s @ serial_dense, campaign8",
       lambda t: t.us(*_GATHER)),
    _m("lattice.gather_calls_per_event", "count", "lower",
       "-> events_per_s @ serial_dense, campaign8",
       lambda t: _ratio(t.calls(*_GATHER), t.events_steady)),
    _m("lattice.swap_us", "us", "lower", "-> events_per_s @ serial_dense",
       lambda t: t.us("lattice:swap", "lattice:set_species_at_half")),
    # -- nnp.model -----------------------------------------------------
    _m("nnp.model.load_s", "s", "lower", f"-> setup_s @ {_ALL}",
       lambda t: t.setup_s("nnp.model:load")),
    _m("nnp.model.infer_us", "us", "lower",
       "-> events_per_s, setup_s @ serial_gemm; 0 @ serial_dense",
       lambda t: t.us(*_INFER)),
    _m("nnp.model.rows_per_event", "count", "lower",
       "-> events_per_s @ serial_gemm; ~0 @ serial_dense",
       lambda t: _ratio(t.count("nnp.rows"), t.events_steady)),
    # -- operators.tilegemm --------------------------------------------
    _m("operators.tilegemm.gemm_us", "us", "lower",
       "-> events_per_s, setup_s @ serial_gemm; 0 @ others",
       lambda t: t.us(_GEMM)),
    _m("operators.tilegemm.launches_per_event", "count", "lower",
       "-> events_per_s @ serial_gemm",
       lambda t: _ratio(t.calls(_GEMM), t.events_steady)),
    _m("operators.tilegemm.flops_per_event", "flop", "lower",
       "computed 2*m*sum(c_in*c_out); -> events_per_s @ serial_gemm",
       lambda t: _ratio(t.count("gemm.flops"), t.events_steady)),
    _m("operators.tilegemm.gflops", "GFLOP/s", "higher",
       "computed FLOPs / measured kernel time over the whole run, cold "
       "rebuild included; -> events_per_s, setup_s @ serial_gemm",
       lambda t: _ratio(t.count_all("gemm.flops") / 1e9, t.total_s(_GEMM))),
    _m("operators.tilegemm.pad_ratio", "ratio", "higher",
       "useful / padded rows over the whole run; -> events_per_s @ "
       "serial_gemm, parallel4 (small batches pad most)",
       lambda t: _ratio(t.count_all("gemm.rows"),
                        t.count_all("gemm.padded_rows"))),
    # -- core.vacancy_system -------------------------------------------
    _m("core.vacancy_system.encode_us", "us", "lower",
       "trial states + shell counts (the feature operator's input), "
       "evaluate_rows' own row encoding included; -> events_per_s @ "
       "serial_gemm first, then serial_dense",
       lambda t: t.us("core.vacancy_system:trial_vets_batch",
                      "core.vacancy_system:region_features_counts",
                      "core.vacancy_system:evaluate_rows")),
    _m("core.vacancy_system.dedup_us", "us", "lower",
       "row keying + unique sort; -> events_per_s @ serial_gemm (wide "
       "byte keys), serial_dense (packed keys)",
       lambda t: t.us("core.vacancy_system:dedup_rows")),
    _m("core.vacancy_system.evaluate_self_us", "us", "lower",
       "batch assembly and scatter around the potential call; -> "
       "events_per_s @ serial_gemm, campaign8",
       lambda t: t.us("core.vacancy_system:evaluate_batch",
                      "core.vacancy_system:evaluate_batch_segments")),
    _m("core.vacancy_system.rows_per_event", "count", "lower",
       "rows entering dedup; -> events_per_s @ serial_gemm",
       lambda t: _ratio(t.count("eval.rows"), t.events_steady)),
    _m("core.vacancy_system.dedup_ratio", "ratio", "lower",
       "unique / total rows; explains nnp.model.rows_per_event",
       lambda t: _ratio(_unique_rows(t), t.count("eval.rows"))),
    # -- core.rowcache -------------------------------------------------
    _m("core.rowcache.lookup_us", "us", "lower",
       "-> events_per_s @ serial_dense, campaign8; 0 @ serial_gemm until "
       "wide rows are cached",
       lambda t: t.us("core.rowcache:lookup")),
    _m("core.rowcache.insert_us", "us", "lower",
       "-> events_per_s @ serial_gemm once wide rows are cached",
       lambda t: t.us("core.rowcache:insert")),
    _m("core.rowcache.hit_rate", "ratio", "higher",
       "-> nnp.model.rows_per_event @ serial_dense, campaign8; 0 @ "
       "serial_gemm today",
       lambda t: _ratio(t.count("rowcache.hits"), t.count("rowcache.keys"))),
    _m("core.rowcache.entries", "count", "lower",
       "-> peak_rss_mb @ serial_dense, campaign8",
       lambda t: t.stat("rowcache.entries")),
    _m("core.rowcache.resident_mb", "MiB", "lower",
       "-> peak_rss_mb @ serial_dense, campaign8",
       lambda t: t.stat("rowcache.resident_bytes") / 2**20),
    _m("core.rowcache.evictions", "count", "lower",
       "0 with the default unbounded budget",
       lambda t: t.stat("rowcache.evictions")),
    # -- core.rates ----------------------------------------------------
    _m("core.rates.rates_us", "us", "lower", "-> events_per_s @ serial_dense",
       lambda t: t.us("core.rates:rates_batch")),
    # -- core.delta ----------------------------------------------------
    _m("core.delta.build_self_us", "us", "lower",
       "-> events_per_s @ serial_dense, parallel4",
       lambda t: t.us("core.delta:build_entries")),
    _m("core.delta.patch_us", "us", "lower",
       "-> events_per_s @ serial_dense, parallel4",
       lambda t: t.us("core.delta:patch_entries")),
    _m("core.delta.dirty_rows_per_refresh", "count", "lower",
       "-> core.vacancy_system.rows_per_event",
       lambda t: _ratio(t.count("delta.dirty_rows"),
                        t.calls("core.delta:build_entries"))),
    # -- core.vacancy_cache --------------------------------------------
    _m("core.vacancy_cache.store_us", "us", "lower",
       "-> events_per_s @ serial_dense",
       lambda t: t.us("core.vacancy_cache:store_batch",
                      "core.vacancy_cache:store_rates")),
    _m("core.vacancy_cache.invalidate_us", "us", "lower",
       "-> events_per_s @ serial_dense (large N); 0 @ campaign8 (small N)",
       lambda t: t.us("core.vacancy_cache:invalidate_slots",
                      "core.vacancy_cache:invalidate_near",
                      "core.vacancy_cache:patch_vets")),
    _m("core.vacancy_cache.hit_rate", "ratio", "higher",
       "fresh slots reused / slots visited over the whole run",
       lambda t: _ratio(t.stat("vacancy_cache.reuses"),
                        t.stat("vacancy_cache.reuses")
                        + t.stat("vacancy_cache.rebuilds"))),
    _m("core.vacancy_cache.invalidations_per_event", "count", "lower",
       "-> core.kernel.stale_per_refresh",
       lambda t: _ratio(t.stat("vacancy_cache.invalidations"),
                        t.events_total)),
    _m("core.vacancy_cache.memory_mb", "MiB", "lower",
       "-> peak_rss_mb @ serial_dense",
       lambda t: t.stat("vacancy_cache.memory_bytes") / 2**20),
    # -- core.propensity -----------------------------------------------
    _m("core.propensity.update_us", "us", "lower",
       "-> events_per_s @ serial_dense, parallel4 (set_active sweeps)",
       lambda t: t.us("core.propensity:update_many",
                      "core.propensity:update")),
    _m("core.propensity.select_us", "us", "lower",
       "-> events_per_s @ serial_dense (deepest tree); 0 @ serial_gemm",
       lambda t: t.us("core.propensity:select")),
    _m("core.propensity.selection_depth", "count", "lower",
       "tree levels walked per selection",
       lambda t: _ratio(t.stat("kernel.selection_depth"),
                        t.stat("kernel.selections"))),
    # -- core.kernel ---------------------------------------------------
    _m("core.kernel.refresh_self_us", "us", "lower",
       "-> events_per_s @ serial_dense",
       lambda t: t.us("core.kernel:refresh", "core.kernel:stale_batch",
                      "core.kernel:apply_refresh")),
    _m("core.kernel.select_self_us", "us", "lower",
       "-> events_per_s @ serial_dense",
       lambda t: t.us("core.kernel:select")),
    _m("core.kernel.move_us", "us", "lower", "-> events_per_s @ serial_dense",
       lambda t: t.us("core.kernel:move")),
    _m("core.kernel.invalidate_self_us", "us", "lower",
       "-> events_per_s @ serial_dense (grows with N); 0 @ campaign8",
       lambda t: t.us("core.kernel:invalidate_near")),
    _m("core.kernel.set_active_us", "us", "lower",
       "-> events_per_s @ parallel4 only",
       lambda t: t.us("core.kernel:set_active", "core.kernel:deactivate")),
    _m("core.kernel.stale_per_refresh", "count", "lower",
       "stale slots per non-empty refresh: the batch width every layer "
       "under refresh sees",
       lambda t: _ratio(t.count("kernel.stale_rows"),
                        t.count("kernel.stale_batches"))),
    _m("core.kernel.cold_refresh_s", "s", "lower", "-> setup_s @ serial_gemm",
       lambda t: t.setup_s("core.kernel:refresh", "core.kernel:apply_refresh",
                           "core.vacancy_system:evaluate_batch_segments")),
    # -- core.engine ---------------------------------------------------
    _m("core.engine.step_self_us", "us", "lower",
       "-> events_per_s @ serial_*, campaign8",
       lambda t: t.us("core.engine:step", "core.engine:run")),
    _m("core.engine.seg_ms_p50", "ms", "lower",
       "median steady segment of the untraced repeats",
       lambda t: _percentile(t.segments["seconds"], 50)),
    _m("core.engine.seg_ms_p90", "ms", "lower",
       "p90 steady segment; p90/p50 is the noise witness for events_per_s",
       lambda t: _percentile(t.segments["seconds"], 90)),
    _m("core.engine.construct_s", "s", "lower", f"-> setup_s @ {_ALL}",
       lambda t: t.setup_s("core.engine:init", "parallel.engine:init")),
    # -- parallel.engine -----------------------------------------------
    _m("parallel.engine.sector_self_us", "us", "lower",
       "-> events_per_s @ parallel4",
       lambda t: t.us("parallel.engine:run_sector", "parallel.engine:cycle",
                      "parallel.recovery:run_resilient")),
    _m("parallel.engine.rescan_us", "us", "lower",
       "-> events_per_s @ parallel4",
       lambda t: t.us("parallel.engine:rescan_vacancies")),
    _m("parallel.engine.events_per_cycle", "count", "higher",
       "work per synchronisation; fixed by t_stop and the seed",
       lambda t: _ratio(t.events_steady, t.units_steady)
       if t.command == "parallel" else 0.0),
    _m("parallel.engine.rejected_per_cycle", "count", "lower",
       "sectors that drew past t_stop",
       lambda t: _ratio(t.stat("ranks.rejected"), t.units)),
    _m("parallel.engine.rank_imbalance", "ratio", "lower",
       "max / mean events per rank per cycle: bounds what any executor can "
       "gain, the slowest rank sets the cycle",
       _rank_imbalance),
    _m("parallel.engine.cycle_ms_p50", "ms", "lower",
       "median steady cycle of the untraced repeats",
       lambda t: _percentile(t.segments["unit_seconds"], 50)
       if t.command == "parallel" else 0.0),
    _m("parallel.engine.cycle_ms_p90", "ms", "lower",
       "p90 steady cycle; one cycle in eight carries a checkpoint save",
       lambda t: _percentile(t.segments["unit_seconds"], 90)
       if t.command == "parallel" else 0.0),
    # -- parallel.ghost / parallel.comm --------------------------------
    _m("parallel.ghost.send_us", "us", "lower",
       "-> events_per_s @ parallel4; 0 @ others",
       lambda t: t.us("parallel.ghost:send_updates")),
    _m("parallel.ghost.apply_us", "us", "lower",
       "-> events_per_s @ parallel4; 0 @ others",
       lambda t: t.us("parallel.ghost:apply_updates")),
    _m("parallel.comm.send_us", "us", "lower",
       "-> events_per_s @ parallel4; 0 @ others",
       lambda t: t.us("parallel.comm:send")),
    _m("parallel.comm.recv_us", "us", "lower",
       "-> events_per_s @ parallel4; 0 @ others",
       lambda t: t.us("parallel.comm:recv_all")),
    _m("parallel.comm.messages_per_cycle", "count", "lower",
       "repeats exactly; 0 @ others",
       lambda t: _ratio(t.cli_float("messages"), t.units)
       if "messages" in t.cli else 0.0),
    _m("parallel.comm.bytes_per_cycle", "bytes", "lower",
       "repeats exactly; 0 @ others",
       lambda t: _ratio(t.cli_float("bytes"), t.units)
       if "bytes" in t.cli else 0.0),
    # -- parallel.executor ---------------------------------------------
    _m("parallel.executor.run_sectors_self_us", "us", "lower",
       "-> events_per_s @ parallel4",
       lambda t: t.us("parallel.executor:run_sectors",
                      "parallel.executor:apply_exchange")),
    _m("parallel.executor.exchange_wait_ms_per_cycle", "ms", "lower",
       "-> events_per_s @ parallel4 (0 inline)",
       lambda t: t.cli_float("exchange_wait_ms_per_cycle")
       if "exchange_wait_ms_per_cycle" in t.cli else 0.0),
    _m("parallel.executor.workers", "count", "lower",
       "-> events_per_s, peak_rss_mb @ parallel4 (0 = inline)",
       lambda t: t.cli_float("workers") if "workers" in t.cli else 0.0),
    # -- campaign.engine -----------------------------------------------
    _m("campaign.engine.round_self_us", "us", "lower",
       "gather/scatter glue of a round; -> events_per_s @ campaign8",
       lambda t: t.us("campaign.engine:run")),
    _m("campaign.engine.admit_s", "s", "lower", "-> setup_s @ campaign8",
       lambda t: t.stat("campaign.admit_s")
       if t.command == "campaign" else 0.0),
    _m("campaign.engine.rows_per_round", "count", "higher",
       "stale slots fused into one evaluation per round",
       lambda t: _ratio(t.stat("campaign.shared_rows"),
                        t.stat("campaign.rounds"))
       if t.command == "campaign" else 0.0),
    _m("campaign.engine.max_shared_batch", "count", "higher",
       "the cold first round: every vacancy of every replica",
       lambda t: t.stat("campaign.max_shared_batch")
       if t.command == "campaign" else 0.0),
    # -- io.checkpoint -------------------------------------------------
    _m("io.checkpoint.save_ms", "ms", "lower",
       "mean per save; -> wall_s @ parallel4, widens cycle_ms_p90, leaves "
       "the median events_per_s alone; 0 @ campaign8",
       lambda t: 1e3 * _ratio(
           t.total_s("io.checkpoint:save_checkpoint",
                     "io.checkpoint:save_parallel_checkpoint"),
           t.calls("io.checkpoint:save_checkpoint",
                   "io.checkpoint:save_parallel_checkpoint",
                   windows=("setup", "steady", "tail")))),
    _m("io.checkpoint.archive_bytes", "bytes", "lower",
       "-> io.checkpoint.save_ms",
       lambda t: t.count_all("checkpoint.archive_bytes")),
    _m("io.checkpoint.saves", "count", "lower", "-> wall_s @ parallel4",
       lambda t: t.calls("io.checkpoint:save_checkpoint",
                         "io.checkpoint:save_parallel_checkpoint",
                         windows=("setup", "steady", "tail"))),
    # -- analysis ------------------------------------------------------
    _m("analysis.precipitation_ms", "ms", "lower",
       "-> wall_s @ serial_dense, serial_gemm",
       lambda t: 1e3 * t.total_s("analysis:analyse_precipitation")),
    # -- host (the box, not the program) -------------------------------
    _m("host.speed", "ratio", "higher",
       "reference quantum / measured quantum, median over the untraced "
       "repeats: 1 on a quiet bench box; every time above is measured "
       "time x the speed at that moment",
       lambda t: t.raw_median("host_speed")),
    _m("host.raw_events_per_s", "1/s", "higher",
       "events_per_s without the host-speed correction",
       lambda t: t.raw_median("events_per_s")),
    _m("host.raw_wall_s", "s", "lower",
       "wall_s without the host-speed correction",
       lambda t: t.raw_median("wall_s")),
    _m("host.raw_setup_s", "s", "lower",
       "setup_s without the host-speed correction",
       lambda t: t.raw_median("setup_s")),
    # -- trace ---------------------------------------------------------
    _m("trace.overhead_share", "ratio", "lower",
       "1 - traced / untraced events_per_s; must stay <= 0.05 or the layer "
       "table is not evidence",
       _trace_overhead),
    _m("trace.spans_per_event", "count", "lower",
       "-> trace.overhead_share",
       lambda t: _ratio(t.trace["n_steady_spans"], t.events_steady)),
    _m("trace.span_cost_us", "us", "lower",
       "what one span adds to a call, probed on a no-op in the traced child",
       lambda t: 1e6 * t.trace["span_cost_s"]),
    _m("trace.span_cost_share", "ratio", "lower",
       "spans x span cost / steady time of the traced child: the direct "
       "part of trace.overhead_share, steady where a single traced-vs-"
       "untraced pair is not",
       lambda t: _ratio(t.trace["n_steady_spans"] * t.trace["span_cost_s"],
                        t.steady_seconds)),
    _m("trace.missing_wraps", "count", "lower",
       "wrap targets that no longer exist; their metrics read null (0 in "
       "the contract line)",
       lambda t: float(len(t.missing))),
)


def per_layer(view: TraceView) -> Dict[str, Optional[float]]:
    """Every per-layer metric of one traced child; ``None`` where a span or
    statistic the metric is built on no longer exists."""
    out: Dict[str, Optional[float]] = {}
    for metric in PER_LAYER:
        try:
            out[metric.name] = float(metric.fn(view))
        except Missing:
            out[metric.name] = None
    return out


def manifest() -> Dict[str, object]:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "-m", "benchmarks.e2e"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": BASE_SECONDS,
        "workloads": [
            {"name": w.name, "why": w.why} for w in WORKLOADS.values()
        ],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER
        ],
    }
