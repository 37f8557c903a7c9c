"""Campaign smoke benchmark: shared batching spans replicas, the cache hits.

Runs an R=8 NNP seed sweep (every replica's stale rows fused into one
``evaluate_batch_segments`` call per round, over one campaign-wide row
cache).  ``shared_rows`` counts the stale vacancy slots the shared calls
refreshed, ``shared_pairs`` the ``(vacancy, region row)`` pairs they
re-rated: replica slots keep their row-energy snapshots, so a slot whose
environment changed re-rates only its dirty rows.  Two gates:

* the fused batches really span replicas — their mean width beats R, more
  than any single replica's per-step stale set could supply;
* across the seed sweep the replicas revisit overwhelmingly the same local
  environments, so the shared cache must report a hit rate >= 0.9.

The campaign's throughput is measured end to end by the ``campaign8``
workload of ``python3 -m benchmarks.e2e``, and its bit-identity to solo
runs, with and without a row cache, by ``tests/test_mode_matrix.py`` and
``tests/test_rowcache.py``.  The best of a few rounds lands in
``BENCH_campaign.json`` at the repo root.

Runs standalone (``python benchmarks/bench_campaign_smoke.py``) and under
pytest (``pytest benchmarks/bench_campaign_smoke.py``).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro.campaign import ReplicaCampaign, alloy_engine_factory, seed_sweep
from repro.core.tet import TripleEncoding
from repro.nnp import ElementNetworks, NNPotential
from repro.potentials import FeatureTable

#: Replica count — the acceptance workload is an R=8 seed sweep.
N_REPLICAS = 8
N_STEPS = 60
BOX = 10
VACANCY_FRACTION = 0.02
#: Repeated runs; the report keeps the best time.
ROUNDS = 3
#: Campaign-wide row-cache hit rate across the R=8 seed sweep.
MIN_ROW_CACHE_HIT_RATE = 0.9
REPORT_PATH = Path(__file__).resolve().parents[1] / "BENCH_campaign.json"


def _nnp_potential() -> NNPotential:
    """Small randomly-initialised NNP (the bench-standard construction)."""
    tet = TripleEncoding(rcut=2.87)
    table = FeatureTable(tet.shell_distances)
    nets = ElementNetworks(
        (2 * table.n_dim, 16, 8, 1), np.random.default_rng(11)
    )
    model = NNPotential(table, nets, rcut=2.87)
    n_feat = 2 * table.n_dim
    model.set_standardisation(
        np.full(n_feat, 0.1, dtype=np.float32),
        np.full(n_feat, 2.0, dtype=np.float32),
        np.array([-4.0, -3.5]),
        0.05,
    )
    return model


def _run_once(potential, tet):
    """One full campaign; returns (seconds, results, campaign)."""
    factory = alloy_engine_factory(
        BOX, potential, tet, cu_fraction=0.05,
        vacancy_fraction=VACANCY_FRACTION,
    )
    specs = seed_sweep(range(N_REPLICAS), n_steps=N_STEPS)
    campaign = ReplicaCampaign(specs, factory)
    t0 = time.perf_counter()
    results = campaign.run()
    return time.perf_counter() - t0, results, campaign


def run_campaign_smoke() -> dict:
    """Campaign at R=8; writes BENCH_campaign.json."""
    tet = TripleEncoding(rcut=2.87)
    potential = _nnp_potential()
    best = np.inf
    for _ in range(ROUNDS):
        seconds, results, campaign = _run_once(potential, tet)
        best = min(best, seconds)
    events = sum(r.executed for r in results)
    shared = campaign.summary()
    mean_shared_batch = (
        shared["shared_rows"] / shared["shared_batches"]
        if shared["shared_batches"]
        else 0.0
    )
    row_cache = {
        "hit_rate": shared.get("row_cache_hit_rate", 0.0),
        "hits": int(shared.get("row_cache_hits", 0)),
        "misses": int(shared.get("row_cache_misses", 0)),
        "entries": int(shared.get("row_cache_entries", 0)),
        "resident_bytes": int(shared.get("row_cache_bytes", 0)),
        "min_hit_rate": MIN_ROW_CACHE_HIT_RATE,
        "ok": shared.get("row_cache_hit_rate", 0.0) >= MIN_ROW_CACHE_HIT_RATE,
    }
    report = {
        "benchmark": "campaign_smoke",
        "replicas": N_REPLICAS,
        "steps_per_replica": N_STEPS,
        "box": BOX,
        "vacancy_fraction": VACANCY_FRACTION,
        "rounds": ROUNDS,
        "events": events,
        "shared_seconds": best,
        "shared_events_per_s": events / best,
        "shared_us_per_event": 1e6 * best / events,
        "shared_batches": int(shared["shared_batches"]),
        "shared_rows": int(shared["shared_rows"]),
        "shared_pairs": int(shared["shared_pairs"]),
        "max_shared_batch": int(shared["max_shared_batch"]),
        "mean_shared_batch": mean_shared_batch,
        "row_cache": row_cache,
        "ok": mean_shared_batch > N_REPLICAS and row_cache["ok"],
    }
    REPORT_PATH.write_text(json.dumps(report, indent=2) + "\n")
    return report


def test_campaign_shared_batches_span_replicas_and_cache_hits():
    report = run_campaign_smoke()
    assert report["events"] == N_REPLICAS * N_STEPS, report
    # The fused batches really span replicas: mean width beats what any
    # single replica's per-step stale set could supply.
    assert report["mean_shared_batch"] > N_REPLICAS, report
    # The campaign-wide cache must absorb the seed sweep's recurring rows.
    assert report["row_cache"]["ok"], report["row_cache"]


def main() -> int:
    report = run_campaign_smoke()
    print(json.dumps(report, indent=2))
    print(
        f"R={report['replicas']} x {report['steps_per_replica']} events: "
        f"{report['shared_events_per_s']:.0f} ev/s shared, mean batch "
        f"{report['mean_shared_batch']:.1f} rows (min > {N_REPLICAS}), "
        f"{report['shared_pairs']} row pairs re-rated"
    )
    rc = report["row_cache"]
    print(
        f"shared row cache: hit rate {rc['hit_rate']:.3f} "
        f"(min {rc['min_hit_rate']}), {rc['entries']} entries"
    )
    if not report["ok"]:
        print("FAILED")
        return 1
    print(f"OK — report written to {REPORT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
