"""Kernel smoke benchmark: parallel per-event cost must not scale with N.

Runs >= 500 sublattice events at two box sizes with the same vacancy density
(4x the active-vacancy count in the large box) and compares the per-event
compute cost.  Before the shared event kernel, ``RankState.run_sector``
rebuilt the full rate-row list and a fresh cumulative sum for every hop —
O(N_active) per event — so the large box paid ~4x per event; with the
Fenwick-backed kernel the per-event cost is O(log N) and the ratio stays
near 1.  The measured numbers land in ``BENCH_kernel.json`` at the repo
root so `make bench-smoke` / `make check` surface regressions in-repo.

Runs standalone (``python benchmarks/bench_kernel_smoke.py``) and under
pytest (``pytest benchmarks/bench_kernel_smoke.py``).
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.engine import TensorKMCEngine
from repro.core.profiling import PHASES
from repro.core.tet import TripleEncoding
from repro.lattice.occupancy import LatticeState
from repro.nnp import ElementNetworks, NNPotential
from repro.parallel.engine import SublatticeKMC
from repro.potentials.eam import EAMPotential
from repro.potentials.tables import FeatureTable

TARGET_EVENTS = 500
MAX_CYCLES = 400
VACANCY_FRACTION = 0.02
#: O(N) per event would make the 4x box ~4x slower; the kernel must stay
#: well under that (loose bound — this is a smoke test, not a microbenchmark).
MAX_RATIO = 4.0
#: Invalidate-all + refresh rounds timed per batching mode.
MISS_REPEATS = 5
#: The batched miss path must not be slower than the scalar one (the
#: acceptance target is >= 2x; 1.0 keeps the gate robust on noisy runners).
MIN_SPEEDUP = 1.0
#: For the NNP the batched path amortises the per-call overhead of the
#: deterministic tiled-GEMM kernel (fixed-tile padding and the per-launch
#: block loop), so the bar is higher than for the EAM table potential.
MIN_NNP_SPEEDUP = 1.5
#: Interleaved scalar/batched rounds for the NNP comparison (drift in a
#: shared runner hits both modes equally).
NNP_MISS_REPEATS = 5
#: Hot-path comparison: vectorized SoA event loop vs the legacy per-slot
#: scan (``EventKernel.set_hot_path("legacy")`` + always-dedup evaluation,
#: the faithful pre-SoA cost shape) at two vacancy densities.
HOT_PATH_SHAPE = (16, 16, 16)
HOT_PATH_EVENTS = 400
#: Interleaved legacy/vectorized rounds; each mode keeps its best round.
HOT_PATH_ROUNDS = 3
#: (vacancy density, speedup gate).  The modes differ in the refresh /
#: activation loops and the always-dedup evaluation only: invalidation
#: (cell-narrowed) and the Fenwick store (list-resident) are one shared
#: path, which took legacy from ~2050 to ~1000 us/event and the ratio from
#: 2.3x to 1.4-1.95x across runs of this box.  The sparser regime keeps a
#: lower floor because the batched rate evaluation — paid identically by
#: both modes — dominates per-event cost there.
HOT_PATH_GATES = ((0.02, 1.3), (0.01, 1.2))
MIN_HOT_PATH_SPEEDUP = HOT_PATH_GATES[0][1]
#: Rebuild-path comparison: incremental delta rebuild (patched VET
#: snapshots + dirty-row re-rate) vs the full re-gather/re-encode rebuild,
#: same box as the hot-path section.
REBUILD_PATH_SHAPE = (16, 16, 16)
REBUILD_PATH_EVENTS = 400
REBUILD_PATH_ROUNDS = 3
#: (vacancy density, rebuild-phase speedup gate): the headline >= 1.5x
#: target is carried by the denser regime — more stale slots per refresh
#: is exactly the workload the delta path trades re-encoding for re-rating
#: in — while the bench's standard density keeps a lower floor (with few
#: slots per batch, per-call fixed costs paid identically by both paths
#: dominate and the ratio necessarily flattens towards 1).
REBUILD_PATH_GATES = ((0.04, 1.5), (0.02, 1.1))
MIN_REBUILD_SPEEDUP = REBUILD_PATH_GATES[0][1]
REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_kernel.json"


def run_box(shape, seed: int = 7) -> dict:
    """Drive one box to TARGET_EVENTS and report per-event compute cost."""
    tet = TripleEncoding(rcut=2.87)
    potential = EAMPotential(tet.shell_distances)
    lattice = LatticeState(shape)
    lattice.randomize_alloy(
        np.random.default_rng(seed),
        cu_fraction=0.05,
        vacancy_fraction=VACANCY_FRACTION,
    )
    sim = SublatticeKMC(
        lattice, potential, tet,
        n_ranks=1, temperature=1200.0, t_stop=5e-7, seed=seed,
    )
    events = 0
    compute_seconds = 0.0
    cycles = 0
    while events < TARGET_EVENTS and cycles < MAX_CYCLES:
        stats = sim.cycle()
        events += stats.events
        compute_seconds += stats.compute_seconds
        cycles += 1
    summary = sim.summary()
    return {
        "shape": list(shape),
        "n_sites": int(2 * np.prod(shape)),
        "n_vacancies": int(sim.ranks[0].kernel.cache.n_live),
        "events": events,
        "cycles": cycles,
        "compute_seconds": compute_seconds,
        "per_event_us": 1e6 * compute_seconds / max(events, 1),
        "phase_us_per_event": {
            name: 1e6 * summary.get(f"{name}_seconds", 0.0) / max(events, 1)
            for name in PHASES
        },
        "hit_rate": summary["hit_rate"],
        "mean_selection_depth": (
            summary["selection_depth"] / summary["selections"]
            if summary["selections"]
            else 0.0
        ),
        "anomalies": int(summary["anomalies"]),
    }


def run_miss_mode(batching: str, shape=(12, 12, 12), seed: int = 13) -> dict:
    """Time the cache-miss rebuild path of a serial engine in one mode.

    Every timed round invalidates the whole registry and refreshes it, so
    each round rebuilds every vacancy system from scratch — the pure miss
    workload the batched big-fusion path targets (Sec. 3.4/3.5).
    """
    tet = TripleEncoding(rcut=2.87)
    potential = EAMPotential(tet.shell_distances)
    lattice = LatticeState(shape)
    lattice.randomize_alloy(
        np.random.default_rng(seed),
        cu_fraction=0.05,
        vacancy_fraction=VACANCY_FRACTION,
    )
    engine = TensorKMCEngine(
        lattice, potential, tet,
        rng=np.random.default_rng(seed), batching=batching,
    )
    kernel = engine.kernel
    kernel.refresh()  # cold build outside the timed region
    # Best-of-N: the minimum round time is the noise-robust cost estimate
    # (shared runners throttle unpredictably; only slowdowns are noise).
    best = np.inf
    for _ in range(MISS_REPEATS):
        kernel.invalidate_all()
        t0 = time.perf_counter()
        kernel.refresh()
        best = min(best, time.perf_counter() - t0)
    rebuilds = kernel.cache.n_live
    summary = engine.summary()
    return {
        "batching": engine.batching,
        "n_vacancies": int(kernel.cache.n_live),
        "rebuilds": int(rebuilds),
        "seconds": best,
        "per_event_us": 1e6 * best / max(rebuilds, 1),
        "mean_batch_size": summary["mean_batch_size"],
        "max_batch_size": summary["max_batch_size"],
    }


def run_miss_path() -> dict:
    """Scalar vs batched miss-path comparison for the report."""
    scalar = run_miss_mode("scalar")
    batched = run_miss_mode("batched")
    speedup = scalar["per_event_us"] / max(batched["per_event_us"], 1e-12)
    return {
        "scalar_per_event_us": scalar["per_event_us"],
        "batched_per_event_us": batched["per_event_us"],
        "mean_batch_size": batched["mean_batch_size"],
        "max_batch_size": batched["max_batch_size"],
        "rebuilds_per_mode": scalar["rebuilds"],
        "speedup": speedup,
        "min_speedup": MIN_SPEEDUP,
        "ok": speedup >= MIN_SPEEDUP,
    }


def _nnp_engine(
    batching: str, shape, seed: int, backend=None,
    vacancy_fraction: float = VACANCY_FRACTION, layers=(16, 8), **engine_kw
) -> TensorKMCEngine:
    """A serial engine over a small randomly-initialised NNP."""
    tet = TripleEncoding(rcut=2.87)
    table = FeatureTable(tet.shell_distances)
    nets = ElementNetworks(
        (2 * table.n_dim, *layers, 1), np.random.default_rng(11)
    )
    model = NNPotential(table, nets, rcut=2.87)
    n_feat = 2 * table.n_dim
    model.set_standardisation(
        np.full(n_feat, 0.1, dtype=np.float32),
        np.full(n_feat, 2.0, dtype=np.float32),
        np.array([-4.0, -3.5]),
        0.05,
    )
    lattice = LatticeState(shape)
    lattice.randomize_alloy(
        np.random.default_rng(seed),
        cu_fraction=0.05,
        vacancy_fraction=vacancy_fraction,
    )
    return TensorKMCEngine(
        lattice, model, tet,
        rng=np.random.default_rng(seed), batching=batching, backend=backend,
        **engine_kw,
    )


def run_nnp_miss_path(shape=(12, 12, 12), seed: int = 13) -> dict:
    """NNP cache-miss rebuilds: scalar vs batched tiled-GEMM inference.

    The deterministic tiled kernel makes the NNP ``batch_row_invariant``,
    so ``batching="auto"`` sends its misses down the batched path; this
    section measures what that buys (the amortised per-launch overhead of
    the fixed-tile kernel) and checks the bargain it rests on: the batched
    refresh must reproduce every scalar per-slot rate *bitwise*.

    Scalar and batched rounds are interleaved and each mode keeps its best
    round, so runner-load drift cannot bias the ratio.
    """
    engines = {
        mode: _nnp_engine(mode, shape, seed) for mode in ("scalar", "batched")
    }
    best = {mode: np.inf for mode in engines}
    for eng in engines.values():
        eng.kernel.refresh()  # cold build outside the timed region
    for _ in range(NNP_MISS_REPEATS):
        for mode, eng in engines.items():
            eng.kernel.invalidate_all()
            t0 = time.perf_counter()
            eng.kernel.refresh()
            best[mode] = min(best[mode], time.perf_counter() - t0)
    # Bitwise invariance: both registries hold the same vacancies, so the
    # per-slot rate vectors must agree exactly — this is the Fig. 8 cache
    # equivalence that lets the batched path replace the scalar one.
    scalar_cache = engines["scalar"].kernel.cache
    batched_cache = engines["batched"].kernel.cache
    slots = scalar_cache.live_slots()
    invariant = slots == batched_cache.live_slots() and all(
        np.array_equal(scalar_cache.get(s).rates, batched_cache.get(s).rates)
        for s in slots
    )
    rebuilds = scalar_cache.n_live
    speedup = best["scalar"] / max(best["batched"], 1e-12)
    summary = engines["batched"].summary()
    return {
        "shape": list(shape),
        "n_vacancies": int(rebuilds),
        "scalar_per_event_us": 1e6 * best["scalar"] / max(rebuilds, 1),
        "batched_per_event_us": 1e6 * best["batched"] / max(rebuilds, 1),
        "mean_batch_size": summary["mean_batch_size"],
        "max_batch_size": summary["max_batch_size"],
        "speedup": speedup,
        "min_speedup": MIN_NNP_SPEEDUP,
        "bitwise_invariant": bool(invariant),
        "ok": bool(invariant) and speedup >= MIN_NNP_SPEEDUP,
    }


def _hot_path_engine(
    mode: str, shape, vacancy_fraction: float, seed: int
) -> TensorKMCEngine:
    """A serial engine in one hot-path mode over an identical lattice."""
    tet = TripleEncoding(rcut=2.87)
    potential = EAMPotential(tet.shell_distances)
    lattice = LatticeState(shape)
    lattice.randomize_alloy(
        np.random.default_rng(seed),
        cu_fraction=0.05,
        vacancy_fraction=vacancy_fraction,
    )
    engine = TensorKMCEngine(
        lattice, potential, tet, rng=np.random.default_rng(seed + 1)
    )
    if mode == "legacy":
        # Pre-SoA configuration: per-slot Python refresh loops, scalar
        # Fenwick updates and the always-dedup'd batch evaluation.
        engine.evaluator.dedup = "always"
        engine.kernel.set_hot_path("legacy")
    return engine


def _hot_path_round(mode: str, vacancy_fraction: float, seed: int):
    """One timed run of HOT_PATH_EVENTS events in the given mode."""
    engine = _hot_path_engine(mode, HOT_PATH_SHAPE, vacancy_fraction, seed)
    t0 = time.perf_counter()
    engine.run(n_steps=HOT_PATH_EVENTS)
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256(engine.lattice.occupancy.tobytes()).hexdigest()
    return seconds, digest, engine


def run_hot_path(seed: int = 17) -> dict:
    """Vectorized SoA event loop vs the legacy per-slot scan.

    Both modes replay the same seeded trajectory (the SoA rewrite changes
    data layout, not semantics — asserted here via the final-occupancy
    digest and final clock), so the speedup is a pure like-for-like cost
    ratio.  Rounds are interleaved so runner-load drift hits both modes.
    """
    densities = []
    ok = True
    for frac, min_speedup in HOT_PATH_GATES:
        best = {"legacy": np.inf, "vectorized": np.inf}
        digests: dict = {}
        times: dict = {}
        phases: dict = {}
        for _ in range(HOT_PATH_ROUNDS):
            for mode in ("legacy", "vectorized"):
                seconds, digest, engine = _hot_path_round(mode, frac, seed)
                best[mode] = min(best[mode], seconds)
                digests[mode] = digest
                times[mode] = engine.time
                if mode == "vectorized":
                    phases = {
                        name: 1e6 * secs / HOT_PATH_EVENTS
                        for name, secs in engine.profiler.seconds.items()
                    }
        identical = (
            digests["legacy"] == digests["vectorized"]
            and times["legacy"] == times["vectorized"]
        )
        speedup = best["legacy"] / max(best["vectorized"], 1e-12)
        entry = {
            "vacancy_fraction": frac,
            "events": HOT_PATH_EVENTS,
            "legacy_per_event_us": 1e6 * best["legacy"] / HOT_PATH_EVENTS,
            "vectorized_per_event_us": (
                1e6 * best["vectorized"] / HOT_PATH_EVENTS
            ),
            "phase_us_per_event": phases,
            "speedup": speedup,
            "min_speedup": min_speedup,
            "trajectory_identical": bool(identical),
            "ok": bool(identical) and speedup >= min_speedup,
        }
        densities.append(entry)
        ok = ok and entry["ok"]
    return {
        "shape": list(HOT_PATH_SHAPE),
        "min_speedup": MIN_HOT_PATH_SPEEDUP,
        "densities": densities,
        "ok": ok,
    }


def _rebuild_path_round(mode: str, vacancy_fraction: float, seed: int):
    """One timed run of REBUILD_PATH_EVENTS events in the given mode."""
    tet = TripleEncoding(rcut=2.87)
    potential = EAMPotential(tet.shell_distances)
    lattice = LatticeState(REBUILD_PATH_SHAPE)
    lattice.randomize_alloy(
        np.random.default_rng(seed),
        cu_fraction=0.05,
        vacancy_fraction=vacancy_fraction,
    )
    engine = TensorKMCEngine(
        lattice, potential, tet,
        rng=np.random.default_rng(seed + 1),
        rebuild_path=mode,
    )
    t0 = time.perf_counter()
    engine.run(n_steps=REBUILD_PATH_EVENTS)
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256(engine.lattice.occupancy.tobytes()).hexdigest()
    return seconds, digest, engine


def run_rebuild_path(seed: int = 29) -> dict:
    """Incremental (delta) rebuild vs the full re-gather/re-encode rebuild.

    The delta path changes *work*, not results — patched VET snapshots and
    spliced row energies are bitwise-equal to a from-scratch rebuild — so
    both modes replay the same seeded trajectory (asserted via the final
    occupancy digest and clock) and the speedup is a pure like-for-like
    cost ratio.  The gate sits on the rebuild *phase* (the work the delta
    path actually targets); total per-event cost is reported alongside.
    Rounds are interleaved so runner-load drift hits both modes.
    """
    densities = []
    ok = True
    for frac, min_speedup in REBUILD_PATH_GATES:
        best_total = {"full": np.inf, "delta": np.inf}
        best_rebuild = {"full": np.inf, "delta": np.inf}
        digests: dict = {}
        times: dict = {}
        phases: dict = {}
        for _ in range(REBUILD_PATH_ROUNDS):
            for mode in ("full", "delta"):
                seconds, digest, engine = _rebuild_path_round(
                    mode, frac, seed
                )
                rebuild = engine.profiler.seconds.get("rebuild", 0.0)
                best_total[mode] = min(best_total[mode], seconds)
                best_rebuild[mode] = min(best_rebuild[mode], rebuild)
                digests[mode] = digest
                times[mode] = engine.time
                phases[mode] = {
                    name: 1e6 * secs / REBUILD_PATH_EVENTS
                    for name, secs in engine.profiler.seconds.items()
                }
        identical = (
            digests["full"] == digests["delta"]
            and times["full"] == times["delta"]
        )
        rebuild_speedup = best_rebuild["full"] / max(
            best_rebuild["delta"], 1e-12
        )
        total_speedup = best_total["full"] / max(best_total["delta"], 1e-12)
        entry = {
            "vacancy_fraction": frac,
            "events": REBUILD_PATH_EVENTS,
            "full_per_event_us": 1e6 * best_total["full"] / REBUILD_PATH_EVENTS,
            "delta_per_event_us": (
                1e6 * best_total["delta"] / REBUILD_PATH_EVENTS
            ),
            "full_rebuild_us_per_event": (
                1e6 * best_rebuild["full"] / REBUILD_PATH_EVENTS
            ),
            "delta_rebuild_us_per_event": (
                1e6 * best_rebuild["delta"] / REBUILD_PATH_EVENTS
            ),
            "phase_us_per_event": phases,
            "rebuild_speedup": rebuild_speedup,
            "total_speedup": total_speedup,
            "min_speedup": min_speedup,
            "trajectory_identical": bool(identical),
            "ok": bool(identical) and rebuild_speedup >= min_speedup,
        }
        densities.append(entry)
        ok = ok and entry["ok"]
    return {
        "shape": list(REBUILD_PATH_SHAPE),
        "min_speedup": MIN_REBUILD_SPEEDUP,
        "densities": densities,
        "ok": ok,
    }


#: The ``row_cache`` section: NNP engine at the rebuild-heavy density.
ROW_CACHE_SHAPE = (12, 12, 12)
ROW_CACHE_EVENTS = 300
ROW_CACHE_ROUNDS = 3
ROW_CACHE_VACANCY = 0.02
#: A paper-realistic network width for this section: the cache's target is
#: the per-row GEMM stack, so the measurement uses a model whose inference
#: actually dominates the rebuild (the tiny bench-standard net spends most
#: of its rebuild in encode/counts, which the cache deliberately leaves
#: untouched and which would blur the ratio toward 1).
ROW_CACHE_LAYERS = (64, 32)
#: Gate on the rebuild phase — the work the cache removes (a hit skips the
#: whole GEMM stack of a recurring row).
MIN_ROW_CACHE_SPEEDUP = 1.4


def _row_cache_round(mode: str, seed: int):
    """One timed run of ROW_CACHE_EVENTS NNP events with the cache on/off."""
    engine = _nnp_engine(
        "auto", ROW_CACHE_SHAPE, seed,
        vacancy_fraction=ROW_CACHE_VACANCY, layers=ROW_CACHE_LAYERS,
        row_cache=mode,
    )
    t0 = time.perf_counter()
    engine.run(n_steps=ROW_CACHE_EVENTS)
    seconds = time.perf_counter() - t0
    digest = hashlib.sha256(engine.lattice.occupancy.tobytes()).hexdigest()
    return seconds, digest, engine


def run_row_cache(seed: int = 31) -> dict:
    """Persistent row-energy memoization vs fresh evaluation of every row.

    The cache changes *work*, not results: a hit returns the exact bits a
    fresh evaluation would (the ``batch_row_invariant`` contract), so both
    modes must replay the same seeded trajectory (digest + clock) and the
    speedup is a pure like-for-like cost ratio.  The gate sits on the
    rebuild phase, where the cache intercepts recurring rows before their
    GEMM stacks; every ``on`` round starts a fresh (cold) cache, so the
    measured win is within-run reuse only.  Rounds are interleaved so
    runner-load drift hits both modes.
    """
    best_total = {"off": np.inf, "on": np.inf}
    best_rebuild = {"off": np.inf, "on": np.inf}
    digests: dict = {}
    times: dict = {}
    cache_stats: dict = {}
    for _ in range(ROW_CACHE_ROUNDS):
        for mode in ("off", "on"):
            seconds, digest, engine = _row_cache_round(mode, seed)
            rebuild = engine.profiler.seconds.get("rebuild", 0.0)
            best_total[mode] = min(best_total[mode], seconds)
            best_rebuild[mode] = min(best_rebuild[mode], rebuild)
            digests[mode] = digest
            times[mode] = engine.time
            if mode == "on":
                summary = engine.summary()
                cache_stats = {
                    "hit_rate": summary["row_cache_hit_rate"],
                    "entries": summary["row_cache_entries"],
                    "resident_bytes": summary["row_cache_bytes"],
                    "evictions": summary["row_cache_evictions"],
                }
    identical = (
        digests["off"] == digests["on"] and times["off"] == times["on"]
    )
    rebuild_speedup = best_rebuild["off"] / max(best_rebuild["on"], 1e-12)
    total_speedup = best_total["off"] / max(best_total["on"], 1e-12)
    return {
        "shape": list(ROW_CACHE_SHAPE),
        "vacancy_fraction": ROW_CACHE_VACANCY,
        "events": ROW_CACHE_EVENTS,
        "off_per_event_us": 1e6 * best_total["off"] / ROW_CACHE_EVENTS,
        "on_per_event_us": 1e6 * best_total["on"] / ROW_CACHE_EVENTS,
        "off_rebuild_us_per_event": (
            1e6 * best_rebuild["off"] / ROW_CACHE_EVENTS
        ),
        "on_rebuild_us_per_event": (
            1e6 * best_rebuild["on"] / ROW_CACHE_EVENTS
        ),
        "rebuild_speedup": rebuild_speedup,
        "total_speedup": total_speedup,
        "min_speedup": MIN_ROW_CACHE_SPEEDUP,
        "cache": cache_stats,
        "trajectory_identical": bool(identical),
        "ok": bool(identical) and rebuild_speedup >= MIN_ROW_CACHE_SPEEDUP,
    }


#: Events per backend timing round in the ``backend`` report section.
BACKEND_EVENTS = 200
BACKEND_ROUNDS = 2


def run_backends(shape=(10, 10, 10), seed: int = 23) -> dict:
    """Per-event NNP engine cost per *available* array backend.

    The numpy entry is always present (it is the golden reference); a torch
    entry appears only where torch is importable, so this section is
    informational — it never makes torch a CI requirement.  Rounds are
    interleaved across backends so runner drift hits everyone equally.
    """
    from repro.core.backend import available_backends

    names = list(available_backends(probe=True))
    best = {name: np.inf for name in names}
    for _ in range(BACKEND_ROUNDS):
        for name in names:
            engine = _nnp_engine("auto", shape, seed, backend=name)
            t0 = time.perf_counter()
            engine.run(n_steps=BACKEND_EVENTS)
            best[name] = min(best[name], time.perf_counter() - t0)
    return {
        name: {
            "events": BACKEND_EVENTS,
            "seconds": best[name],
            "per_event_us": 1e6 * best[name] / BACKEND_EVENTS,
        }
        for name in names
    }


def run_smoke() -> dict:
    small = run_box((16, 8, 8))
    large = run_box((16, 16, 16))
    miss = run_miss_path()
    nnp_miss = run_nnp_miss_path()
    hot = run_hot_path()
    rebuild = run_rebuild_path()
    row_cache = run_row_cache()
    backends = run_backends()
    ratio = large["per_event_us"] / small["per_event_us"]
    report = {
        "benchmark": "kernel_smoke",
        "target_events": TARGET_EVENTS,
        "small": small,
        "large": large,
        "vacancy_scale": large["n_vacancies"] / max(small["n_vacancies"], 1),
        "per_event_ratio": ratio,
        "max_ratio": MAX_RATIO,
        "miss_path": miss,
        "nnp_miss_path": nnp_miss,
        "hot_path": hot,
        "rebuild_path": rebuild,
        "row_cache": row_cache,
        "backend": backends,
        "ok": ratio < MAX_RATIO and miss["ok"] and nnp_miss["ok"]
        and hot["ok"] and rebuild["ok"] and row_cache["ok"],
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_kernel_per_event_cost_does_not_scale_linearly():
    report = run_smoke()
    assert report["small"]["events"] >= TARGET_EVENTS
    assert report["large"]["events"] >= TARGET_EVENTS
    assert report["small"]["anomalies"] == 0
    assert report["large"]["anomalies"] == 0
    assert report["per_event_ratio"] < MAX_RATIO, report


def test_batched_miss_path_is_not_slower():
    miss = run_miss_path()
    assert miss["mean_batch_size"] > 1.0, miss
    assert miss["speedup"] >= MIN_SPEEDUP, miss


def test_nnp_batched_miss_path_is_faster_and_bitwise():
    nnp_miss = run_nnp_miss_path()
    assert nnp_miss["mean_batch_size"] > 1.0, nnp_miss
    assert nnp_miss["bitwise_invariant"], nnp_miss
    assert nnp_miss["speedup"] >= MIN_NNP_SPEEDUP, nnp_miss


def test_hot_path_is_faster_and_trajectory_identical():
    hot = run_hot_path()
    for entry in hot["densities"]:
        assert entry["trajectory_identical"], entry
        assert entry["speedup"] >= entry["min_speedup"], entry


def test_rebuild_path_is_faster_and_trajectory_identical():
    rebuild = run_rebuild_path()
    for entry in rebuild["densities"]:
        assert entry["trajectory_identical"], entry
        assert entry["rebuild_speedup"] >= entry["min_speedup"], entry


def test_row_cache_is_faster_and_trajectory_identical():
    row_cache = run_row_cache()
    assert row_cache["trajectory_identical"], row_cache
    assert row_cache["cache"]["hit_rate"] > 0.0, row_cache
    assert row_cache["rebuild_speedup"] >= row_cache["min_speedup"], row_cache


def test_backend_section_reports_numpy():
    backends = run_backends()
    assert "numpy" in backends, backends
    assert backends["numpy"]["per_event_us"] > 0.0, backends


def main() -> int:
    report = run_smoke()
    print(json.dumps(report, indent=2))
    print(
        f"per-event: {report['small']['per_event_us']:.1f} us (small) vs "
        f"{report['large']['per_event_us']:.1f} us (large, "
        f"{report['vacancy_scale']:.1f}x vacancies) -> "
        f"ratio {report['per_event_ratio']:.2f} (max {MAX_RATIO})"
    )
    miss = report["miss_path"]
    print(
        f"miss path: {miss['scalar_per_event_us']:.1f} us scalar vs "
        f"{miss['batched_per_event_us']:.1f} us batched "
        f"(mean batch {miss['mean_batch_size']:.1f}) -> "
        f"speedup {miss['speedup']:.2f}x (min {MIN_SPEEDUP})"
    )
    nnp = report["nnp_miss_path"]
    print(
        f"NNP miss path: {nnp['scalar_per_event_us']:.1f} us scalar vs "
        f"{nnp['batched_per_event_us']:.1f} us batched (tiled GEMM) -> "
        f"speedup {nnp['speedup']:.2f}x (min {MIN_NNP_SPEEDUP}), "
        f"bitwise {'OK' if nnp['bitwise_invariant'] else 'BROKEN'}"
    )
    for entry in report["hot_path"]["densities"]:
        print(
            f"hot path (vac {entry['vacancy_fraction']}): "
            f"{entry['legacy_per_event_us']:.1f} us legacy vs "
            f"{entry['vectorized_per_event_us']:.1f} us vectorized -> "
            f"speedup {entry['speedup']:.2f}x "
            f"(min {entry['min_speedup']}), trajectory "
            f"{'OK' if entry['trajectory_identical'] else 'BROKEN'}"
        )
    for entry in report["rebuild_path"]["densities"]:
        print(
            f"rebuild path (vac {entry['vacancy_fraction']}): "
            f"{entry['full_rebuild_us_per_event']:.1f} us full vs "
            f"{entry['delta_rebuild_us_per_event']:.1f} us delta rebuild -> "
            f"speedup {entry['rebuild_speedup']:.2f}x "
            f"(min {entry['min_speedup']}, total "
            f"{entry['total_speedup']:.2f}x), trajectory "
            f"{'OK' if entry['trajectory_identical'] else 'BROKEN'}"
        )
    rc = report["row_cache"]
    print(
        f"row cache (vac {rc['vacancy_fraction']}): "
        f"{rc['off_rebuild_us_per_event']:.1f} us off vs "
        f"{rc['on_rebuild_us_per_event']:.1f} us on rebuild -> "
        f"speedup {rc['rebuild_speedup']:.2f}x "
        f"(min {rc['min_speedup']}, total {rc['total_speedup']:.2f}x, "
        f"hit rate {rc['cache'].get('hit_rate', 0.0):.3f}), trajectory "
        f"{'OK' if rc['trajectory_identical'] else 'BROKEN'}"
    )
    for name, entry in report["backend"].items():
        print(f"backend {name}: {entry['per_event_us']:.1f} us/event")
    if not report["ok"]:
        if report["per_event_ratio"] >= MAX_RATIO:
            print("FAIL: per-event cost scales with the active-vacancy count")
        if not miss["ok"]:
            print("FAIL: batched miss path is slower than the scalar one")
        if not nnp["ok"]:
            print(
                "FAIL: NNP batched miss path misses its speedup gate or is "
                "not bitwise-invariant"
            )
        if not report["hot_path"]["ok"]:
            print(
                "FAIL: vectorized hot path misses its speedup gate or "
                "changed the trajectory"
            )
        if not report["rebuild_path"]["ok"]:
            print(
                "FAIL: delta rebuild path misses its rebuild-phase speedup "
                "gate or changed the trajectory"
            )
        if not rc["ok"]:
            print(
                "FAIL: row-energy cache misses its rebuild-phase speedup "
                "gate or changed the trajectory"
            )
        return 1
    print(f"OK — report written to {REPORT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
