"""Spawn measured children and turn what they observed into metrics.

Closed loop, one client: at any moment exactly one child runs and it is the
only load the harness puts on the box.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from benchmarks.e2e import fixtures, layers, verify
from benchmarks.e2e.workloads import Workload

__all__ = [
    "ROOT", "Session", "end_to_end", "events_per_s", "layer_report",
    "reference_clock", "require_program", "segments", "spread_stats",
]

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Share of a child's units dropped as warm-up before the steady window.
WARMUP_SHARE = 0.05
#: Steady-state segments per child (fewer when a child has fewer units).
SEGMENTS = 100
#: Every how many units a traced child keeps the full span tree.
SPAN_EVERY = 50
#: Wall-clock limit of one child (a healthy one takes 7-15 s); the contract
#: allows a run, up to six children, 180 s.
CHILD_TIMEOUT_S = 50.0


def require_program() -> None:
    """Make ``src/repro`` importable (the fixtures are built with it); exit
    non-zero, printing no result, when there is no program to run."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "cli.py")):
        sys.stderr.write(
            f"error: {src}/repro is missing - the benchmark measures the "
            "program in this checkout and has nothing to run\n"
        )
        raise SystemExit(2)
    if src not in sys.path:
        sys.path.insert(0, src)


class Session:
    """One harness invocation: its scratch directory, potentials and env."""

    def __init__(self, tag: str) -> None:
        self.dir = os.path.join(HERE, "out", tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.env = fixtures.child_env(ROOT)
        self._potentials: Dict[float, Dict[str, object]] = {}
        self._children = 0

    def potential(self, rcut: float) -> Dict[str, object]:
        """The seeded NNP for ``rcut``, written once, outside any timing."""
        if rcut not in self._potentials:
            self._potentials[rcut] = fixtures.build_potential(rcut, self.dir)
        return self._potentials[rcut]

    @property
    def fixtures(self) -> Dict[str, object]:
        return {f"rcut{r:g}": p for r, p in sorted(self._potentials.items())}

    # ------------------------------------------------------------------
    def run_child(self, workload: Workload, seed: int, budget: int,
                  traced: bool) -> Dict[str, object]:
        """Run one fresh child to completion; never raises on its failure."""
        self._children += 1
        stem = os.path.join(
            self.dir,
            f"{self._children:03d}_{workload.name}_{'traced' if traced else 'plain'}",
        )
        work = stem + ".work"
        os.makedirs(work)
        spec = {
            "argv": workload.command(
                budget, seed, self.potential(workload.rcut)["path"],
                os.path.join(work, "checkpoint.npz"),
            ),
            "unit": list(workload.unit),
            "traced": traced,
            "result": stem + ".result.json",
            "spans": stem + ".spans.json",
            "span_every": SPAN_EVERY,
        }
        with open(stem + ".spec.json", "w") as fh:
            json.dump(spec, fh)
        with open(stem + ".stdout", "w") as out, \
                open(stem + ".stderr", "w") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"),
                 stem + ".spec.json"],
                stdout=out, stderr=err, env=self.env, cwd=work,
            )
            status, rusage = _wait(proc, CHILD_TIMEOUT_S)
            t_exit = time.perf_counter()
        shutil.rmtree(work, ignore_errors=True)
        run = {
            "workload": workload.name, "traced": traced, "budget": budget,
            "units_requested": budget * workload.units_per_budget,
            "unit_group": workload.units_per_budget,
            "seed": seed, "argv": spec["argv"], "stem": stem,
            "t_spawn": t_spawn, "wall_s": t_exit - t_spawn,
            "peak_rss_mb": rusage.ru_maxrss / 1024.0,
            "process_exit": os.waitstatus_to_exitcode(status),
            "result": None,
        }
        if os.path.exists(spec["result"]):
            with open(spec["result"]) as fh:
                run["result"] = json.load(fh)
        run["problems"] = verify.check_child(workload, run)
        if not traced and not run["problems"]:
            # Raw stamps are only worth keeping for a run someone must debug.
            os.remove(spec["result"])
        return run


def _wait(proc: subprocess.Popen, timeout: float):
    """Blocking ``os.wait4`` (exit status + the child's rusage); a child
    still running after ``timeout`` seconds is killed."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, rusage


# ----------------------------------------------------------------------
# Host-speed correction
# ----------------------------------------------------------------------
#: Duration of one calibration sample (two quanta) on the bench box when it
#: is quiet.  Times are reported in *reference seconds*: measured seconds
#: scaled by REF_QUANTUM_S / (the sample's duration at that moment), so on a
#: quiet box they read as plain seconds.  Changing it rescales every time.
REF_QUANTUM_S = 0.00055


def reference_clock(run: Dict[str, object]) -> Callable[[object], np.ndarray]:
    """``perf_counter`` stamp(s) of one child -> reference seconds elapsed.

    The shared bench box runs the same code 20-40 % faster or slower from
    one minute to the next, which no number of repeats inside a 30 s run
    averages out.  Each child therefore takes a calibration sample every
    40 ms (``trace.Stopwatch.start_calibration``); at a sample the
    program's time advances at ``REF_QUANTUM_S / q`` reference seconds per
    second, ``q`` being the running median of five samples; between two
    samples the rate is interpolated, before the first and after the last
    it is theirs.
    """
    if "clock" not in run:
        start = np.asarray(run["result"]["cal_t"], dtype=np.float64)
        dur = np.asarray(run["result"]["cal_d"], dtype=np.float64)
        windows = np.lib.stride_tricks.sliding_window_view(
            np.pad(dur, 2, mode="edge"), 5)
        rate = REF_QUANTUM_S / np.median(windows, axis=1)
        elapsed = np.concatenate((
            [0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(start))))

        def clock(t):
            t = np.asarray(t, dtype=np.float64)
            return (np.interp(t, start, elapsed)
                    + np.minimum(t - start[0], 0.0) * rate[0]
                    + np.maximum(t - start[-1], 0.0) * rate[-1])

        run["clock"] = clock
    return run["clock"]


def host_speed(run: Dict[str, object]) -> float:
    """Reference seconds per measured second over one child (1 = quiet)."""
    return REF_QUANTUM_S / float(np.median(run["result"]["cal_d"]))


# ----------------------------------------------------------------------
# Steady-state segments
# ----------------------------------------------------------------------
def segments(run: Dict[str, object]) -> Dict[str, np.ndarray]:
    """Cut a child's steady window into equal-unit segments.

    The first :data:`WARMUP_SHARE` of the units (at least the first, which
    is set-up) is dropped and the rest cut into up to :data:`SEGMENTS`
    segments of the same number of units; a remainder goes to the warm-up.
    A segment holds whole rounds (``run["unit_group"]`` units: the eight
    steps of a campaign round follow one fused evaluation).  Returns
    per-segment ``events``, ``seconds`` (reference seconds) and
    ``raw_seconds`` and the per-unit ``unit_seconds`` of the same window.
    """
    if "segments" in run:
        return run["segments"]
    stamps = np.asarray(run["result"]["stamps"], dtype=np.float64)
    events = np.asarray(run["result"]["events"], dtype=np.int64)
    n = len(stamps)
    steady = n - max(1, int(np.ceil(WARMUP_SHARE * n)))
    if steady < run["unit_group"]:
        empty = np.zeros(0)
        run["segments"] = {"events": empty, "seconds": empty,
                           "raw_seconds": empty, "unit_seconds": empty}
        return run["segments"]
    group = run["unit_group"]
    seg_len = max(1, steady // SEGMENTS // group) * group
    n_seg = steady // seg_len
    first = n - n_seg * seg_len          # index of the first steady unit
    edges = stamps[first - 1::seg_len]   # n_seg + 1 boundaries
    clock = reference_clock(run)
    run["segments"] = {
        "events": events[first:].reshape(n_seg, seg_len).sum(axis=1),
        "seconds": np.diff(clock(edges)),
        "raw_seconds": np.diff(edges),
        "unit_seconds": np.diff(clock(stamps[first - 1:])),
    }
    return run["segments"]


def events_per_s(runs: Sequence[Dict[str, object]],
                 seconds: str = "seconds") -> Optional[float]:
    """Median segment rate, segments pooled over ``runs``."""
    rates = [
        seg["events"] / seg[seconds]
        for seg in map(segments, runs) if len(seg[seconds])
    ]
    return float(np.median(np.concatenate(rates))) if rates else None


def child_times(run: Dict[str, object]) -> Dict[str, float]:
    """Set-up and wall time of one child, in reference seconds and raw."""
    clock = reference_clock(run)
    first = run["result"]["stamps"][0]
    spawn, done = run["t_spawn"], run["t_spawn"] + run["wall_s"]
    return {
        "setup_s": float(clock(first) - clock(spawn)),
        "wall_s": float(clock(done) - clock(spawn)),
        "raw_setup_s": first - spawn,
        "raw_wall_s": run["wall_s"],
        "host_speed": host_speed(run),
    }


def spread_stats(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles``, as the contract's spread
    takes them; of two or three values it extrapolates, so they are kept
    within min..max), min, max and count of one metric's repeats."""
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else [values[0]] * 3)
    return {
        "median": float(statistics.median(values)),
        "q1": float(max(q1, min(values))), "q3": float(min(q3, max(values))),
        "min": float(min(values)),
        "max": float(max(values)),
        "n": len(values),
    }


def end_to_end(runs: Sequence[Dict[str, object]],
               setup_runs: Sequence[Dict[str, object]] = ()) -> Dict[str, object]:
    """The end-to-end block of one workload from its untraced repeats.

    ``runs`` are the full-budget repeats; ``setup_runs`` ran the smallest
    budget and add their set-up times to ``setup_s``, nothing else.  A
    repeat that failed contributes its events to ``failed`` and nothing to
    the timings; with no good full repeat left the timings are ``None``.
    ``raw`` holds the same statistics without the host-speed correction.
    """
    good = [r for r in runs if not r["problems"]]
    digests = sorted({r["result"]["digest"] for r in good})
    if len(digests) > 1:
        # Same seed, different final occupancy: no repeat can be trusted.
        for r in good:
            r["problems"].append(f"digest differs between repeats: {digests}")
        good = []
    every = [*runs, *setup_runs]
    attempted = sum(r["units_requested"] for r in every)
    failed = sum(r["units_requested"] for r in every if r["problems"])
    out = {
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "digest": digests[0] if len(digests) == 1 else None,
        "problems": [p for r in every for p in r["problems"]],
        "metrics": None,
        "raw": None,
    }
    if good:
        times = [child_times(r) for r in good]
        setups = times + [
            child_times(r) for r in setup_runs if not r["problems"]]

        def over(key: str, of=times) -> Dict[str, float]:
            return spread_stats([t[key] for t in of])

        out["metrics"] = {
            "setup_s": over("setup_s", setups),
            "events_per_s": {
                **spread_stats([events_per_s([r]) for r in good]),
                "median": events_per_s(good),
                "n_segments": int(sum(len(segments(r)["seconds"]) for r in good)),
            },
            "wall_s": over("wall_s"),
            "peak_rss_mb": spread_stats([r["peak_rss_mb"] for r in good]),
        }
        out["raw"] = {
            "setup_s": over("raw_setup_s", setups),
            "events_per_s": {
                **spread_stats([events_per_s([r], "raw_seconds") for r in good]),
                "median": events_per_s(good, "raw_seconds"),
            },
            "wall_s": over("raw_wall_s"),
            "host_speed": over("host_speed"),
        }
    return out


# ----------------------------------------------------------------------
# The traced repeat
# ----------------------------------------------------------------------
#: CLI ``phase_<name>_us_per_event`` line -> the ``parent>child`` span pairs
#: that cover the same code, per command.
PHASE_SPANS = {
    "run": {
        "rebuild": ["core.engine:step>core.kernel:refresh"],
        "select": ["core.engine:step>core.kernel:select"],
        "hop": ["core.engine:step>lattice:neighbor_ids",
                "core.engine:step>lattice:swap",
                "core.engine:step>core.kernel:move"],
        "invalidate": ["core.engine:step>core.kernel:invalidate_near",
                       "core.engine:step>lattice:half_coords"],
    },
    "parallel": {
        "rebuild": ["parallel.engine:run_sector>core.kernel:refresh",
                    "parallel.engine:run_sector>core.kernel:set_active"],
        "select": ["parallel.engine:run_sector>core.kernel:select"],
        "invalidate": ["parallel.engine:run_sector>core.kernel:invalidate_near"],
        "exchange": ["parallel.engine:cycle>parallel.ghost:send_updates",
                     "parallel.engine:cycle>parallel.executor:apply_exchange"],
    },
}
#: Agreement asked of a phase and its spans.  A phase under a tenth of the
#: event is reported but not judged: the RNG draws, int conversions and
#: PhaseProfiler bookkeeping no span covers (10-20 us) are a third of
#: ``select``.  And agreement of the self-time sum with the root span.
PHASE_TOLERANCE = 0.05
PHASE_MIN_SHARE = 0.10
TELESCOPE_TOLERANCE = 0.01


def layer_report(plain: Sequence[Dict[str, object]],
                 traced: Dict[str, object],
                 plain_raw: Optional[Dict[str, object]]) -> Dict[str, object]:
    """Per-layer metrics, the layer table and the trace's self-checks.

    ``plain`` are the good untraced repeats the traced one is compared
    with and ``plain_raw`` their uncorrected statistics.  Per-layer times
    are the traced child's measured times scaled by its one
    :func:`host_speed`.  Per-layer numbers are evidence, they never fail a
    run: a traced child that broke yields ``None`` everywhere and a
    warning.
    """
    warnings: List[str] = list(traced["problems"])
    digests = {r["result"]["digest"] for r in plain}
    if not warnings and digests and traced["result"]["digest"] not in digests:
        warnings.append("traced repeat ended on a different occupancy digest")
    if traced["result"] is None or "trace" not in traced["result"]:
        return {"metrics": {m.name: None for m in layers.PER_LAYER},
                "warnings": warnings or ["traced child left no trace"]}
    pooled = {
        key: np.concatenate([segments(r)[key] for r in plain])
        if plain else np.zeros(0)
        for key in ("seconds", "unit_seconds")
    }
    speed = host_speed(traced)
    view = layers.TraceView(
        traced, pooled, events_per_s(plain), events_per_s([traced]),
        speed, plain_raw)
    metrics = layers.per_layer(view)
    trace = traced["result"]["trace"]
    for name in trace["missing"]:
        warnings.append(f"wrap target of span {name} no longer exists")

    roots, self_sum = trace["roots_s"], trace["self_sum_s"]
    if abs(self_sum - roots) > TELESCOPE_TOLERANCE * roots:
        warnings.append(
            f"self times sum to {self_sum:.4f} s, the root spans took "
            f"{roots:.4f} s")
    phases = {}
    phase_total = sum(
        float(v) for k, v in view.cli.items()
        if k.startswith("phase_") and k.endswith("_us_per_event")
    ) * view.events_total / 1e6
    for phase, pairs in PHASE_SPANS.get(view.command, {}).items():
        line = view.cli.get(f"phase_{phase}_us_per_event")
        if line is None or any(p not in trace["phase_sums"] for p in pairs):
            continue
        cli_s = float(line) * view.events_total / 1e6
        span_s = sum(trace["phase_sums"][p] for p in pairs)
        judged = cli_s >= PHASE_MIN_SHARE * phase_total
        agrees = abs(span_s - cli_s) <= PHASE_TOLERANCE * cli_s
        phases[phase] = {"cli_s": cli_s, "span_s": span_s, "judged": judged,
                         "agrees": agrees}
        if judged and not agrees:
            warnings.append(
                f"phase {phase}: spans {span_s:.4f} s vs PhaseProfiler "
                f"{cli_s:.4f} s")
    for name, limit in (("trace.overhead_share", 0.05),
                        ("trace.span_cost_share", 0.05),
                        ("cli.unattributed_share", 0.05)):
        if metrics[name] is not None and metrics[name] > limit:
            warnings.append(f"{name} = {metrics[name]:.4f} exceeds {limit}")

    layer_table: Dict[str, Dict[str, float]] = {}
    for span, windows in trace["spans"].items():
        row = layer_table.setdefault(
            span.split(":")[0], {"setup_s": 0.0, "steady_us_per_event": 0.0,
                                 "tail_s": 0.0})
        row["setup_s"] += speed * windows["setup"]["self_s"]
        row["tail_s"] += speed * windows["tail"]["self_s"]
        if view.events_steady:
            row["steady_us_per_event"] += (
                1e6 * speed * windows["steady"]["self_s"] / view.events_steady)
    return {
        "metrics": metrics,
        "layer_table": layer_table,
        "span_table": trace["spans"],
        "phase_check": phases,
        "telescoping": {"roots_s": roots, "self_sum_s": self_sum},
        "events_steady": view.events_steady,
        "host_speed": speed,
        "n_spans": trace["n_spans"],
        "spans_file": os.path.relpath(traced["stem"] + ".spans.json", ROOT),
        "warnings": warnings,
    }
