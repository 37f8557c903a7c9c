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

import json
import sys
from pathlib import Path

import numpy as np

from repro.core.profiling import PHASES
from repro.core.tet import TripleEncoding
from repro.lattice.occupancy import LatticeState
from repro.parallel.engine import SublatticeKMC
from repro.potentials.eam import EAMPotential

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


def run_smoke() -> dict:
    small = run_box((16, 8, 8))
    large = run_box((16, 16, 16))
    ratio = large["per_event_us"] / small["per_event_us"]
    report = {
        "benchmark": "kernel_smoke",
        "target_events": TARGET_EVENTS,
        "small": small,
        "large": large,
        "vacancy_scale": large["n_vacancies"] / max(small["n_vacancies"], 1),
        "per_event_ratio": ratio,
        "max_ratio": MAX_RATIO,
        "ok": ratio < MAX_RATIO,
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


def main() -> int:
    report = run_smoke()
    print(json.dumps(report, indent=2))
    print(
        f"per-event: {report['small']['per_event_us']:.1f} us (small) vs "
        f"{report['large']['per_event_us']:.1f} us (large, "
        f"{report['vacancy_scale']:.1f}x vacancies) -> "
        f"ratio {report['per_event_ratio']:.2f} (max {MAX_RATIO})"
    )
    if not report["ok"]:
        print("FAIL: per-event cost scales with the active-vacancy count")
        return 1
    print(f"OK — report written to {REPORT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
