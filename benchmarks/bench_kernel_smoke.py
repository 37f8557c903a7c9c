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


def _nnp_engine(
    shape, seed: int,
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
        rng=np.random.default_rng(seed), **engine_kw,
    )


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
        ROW_CACHE_SHAPE, seed,
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


def run_smoke() -> dict:
    small = run_box((16, 8, 8))
    large = run_box((16, 16, 16))
    row_cache = run_row_cache()
    ratio = large["per_event_us"] / small["per_event_us"]
    report = {
        "benchmark": "kernel_smoke",
        "target_events": TARGET_EVENTS,
        "small": small,
        "large": large,
        "vacancy_scale": large["n_vacancies"] / max(small["n_vacancies"], 1),
        "per_event_ratio": ratio,
        "max_ratio": MAX_RATIO,
        "row_cache": row_cache,
        "ok": ratio < MAX_RATIO and row_cache["ok"],
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


def test_row_cache_is_faster_and_trajectory_identical():
    row_cache = run_row_cache()
    assert row_cache["trajectory_identical"], row_cache
    assert row_cache["cache"]["hit_rate"] > 0.0, row_cache
    assert row_cache["rebuild_speedup"] >= row_cache["min_speedup"], row_cache


def main() -> int:
    report = run_smoke()
    print(json.dumps(report, indent=2))
    print(
        f"per-event: {report['small']['per_event_us']:.1f} us (small) vs "
        f"{report['large']['per_event_us']:.1f} us (large, "
        f"{report['vacancy_scale']:.1f}x vacancies) -> "
        f"ratio {report['per_event_ratio']:.2f} (max {MAX_RATIO})"
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
    if not report["ok"]:
        if report["per_event_ratio"] >= MAX_RATIO:
            print("FAIL: per-event cost scales with the active-vacancy count")
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
