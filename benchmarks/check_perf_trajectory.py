"""Diff fresh benchmark reports against their committed baselines.

``make bench-smoke`` rewrites ``BENCH_kernel.json`` (and ``make
campaign-suite`` rewrites ``BENCH_campaign.json``) with the timings of the
current tree; this script compares the fresh numbers against the committed
copies (``git show HEAD:<report>`` by default) and fails when any tracked
per-event time regressed by more than the tolerance.  It gives the perf
trajectory of the repo a memory: a PR that slows the hot path down fails CI
even though every correctness test still passes.

Only slowdowns fail; speedups simply become the new baseline once the
refreshed report is committed.  Metrics absent from the baseline (older
reports predate the phase breakdown) are skipped, so the gate tightens
as the report grows without ever breaking on history.

Usage::

    python benchmarks/check_perf_trajectory.py \
        [--fresh BENCH_kernel.json] [--baseline git:HEAD | path.json] \
        [--tolerance 0.10]

No ``repro`` imports — the script must run anywhere a checkout and the two
JSON reports exist.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
DEFAULT_FRESH = REPO_ROOT / "BENCH_kernel.json"
DEFAULT_TOLERANCE = float(os.environ.get("PERF_TOLERANCE", "0.10"))
#: Timings below this are timer noise, not signal; they never gate.
MIN_US = 5.0


def _dig(report: dict, path: str):
    """Fetch a dotted path (list indices allowed) or None when absent."""
    node = report
    for part in path.split("."):
        if isinstance(node, list):
            try:
                node = node[int(part)]
            except (IndexError, ValueError):
                return None
        elif isinstance(node, dict):
            if part not in node:
                return None
            node = node[part]
        else:
            return None
    return node


def tracked_metrics(report: dict) -> list:
    """Dotted paths of every per-event time the trajectory gate watches."""
    metrics = ["small.per_event_us", "large.per_event_us"]
    for box in ("small", "large"):
        phases = _dig(report, f"{box}.phase_us_per_event")
        if isinstance(phases, dict):
            metrics.extend(f"{box}.phase_us_per_event.{p}" for p in phases)
    # The cached miss path: total and rebuild-phase per-event cost with the
    # persistent row-energy cache on (absent from pre-cache baselines, so
    # the predates-the-baseline skip in compare() keeps history green).
    if _dig(report, "row_cache") is not None:
        metrics.append("row_cache.on_per_event_us")
        metrics.append("row_cache.on_rebuild_us_per_event")
    # Per-backend per-event cost (the numpy entry is always present; torch
    # appears only where torch is importable, and the predates-the-baseline
    # skip in compare() keeps mixed environments green).
    backends = _dig(report, "backend")
    if isinstance(backends, dict):
        metrics.extend(
            f"backend.{name}.per_event_us" for name in sorted(backends)
        )
    return metrics


def campaign_metrics(report: dict) -> list:
    """Tracked per-event times of the campaign smoke benchmark."""
    metrics = ["sequential_us_per_event", "shared_us_per_event"]
    if _dig(report, "row_cache") is not None:
        metrics.append("row_cache.cached_us_per_event")
    return metrics


#: Every report the trajectory gate watches: (filename, metrics function).
#: The speedup/ratio gates live in each report's own ``ok`` flag (checked
#: by CI's perf-gate step); this script only watches absolute times.
REPORTS = (
    ("BENCH_kernel.json", tracked_metrics),
    ("BENCH_campaign.json", campaign_metrics),
)


def load_baseline(spec: str, filename: str = "BENCH_kernel.json") -> dict:
    """Load a baseline report from a path or a ``git:REF`` spec.

    ``git:REF`` resolves ``filename`` at that ref; a filesystem path names
    the kernel report directly and sibling reports are read from the same
    directory under their canonical names.
    """
    if spec.startswith("git:"):
        ref = spec[len("git:"):]
        blob = subprocess.run(
            ["git", "show", f"{ref}:{filename}"],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(blob)
    path = Path(spec)
    if path.name != filename:
        path = path.parent / filename
    return json.loads(path.read_text())


def compare(fresh: dict, baseline: dict, tolerance: float,
            metrics_fn=tracked_metrics) -> list:
    """Regressions as (metric, baseline_us, fresh_us, ratio) tuples."""
    regressions = []
    for metric in metrics_fn(fresh):
        base = _dig(baseline, metric)
        new = _dig(fresh, metric)
        if base is None or new is None:
            continue  # metric predates the baseline (or was dropped)
        base = float(base)
        new = float(new)
        if base < MIN_US or new < MIN_US:
            continue
        ratio = new / base
        if ratio > 1.0 + tolerance:
            regressions.append((metric, base, new, ratio))
    return regressions


def check_report(filename: str, metrics_fn, fresh_path: Path,
                 baseline_spec: str, tolerance: float) -> int:
    """Diff one report against its baseline; 0 = OK or skipped, 1 = FAIL.

    The gate must never block a tree that simply has no numbers to compare:
    a missing or unreadable report on either side is a warning, not a
    failure (regressions can only be judged against a real baseline).
    """
    try:
        fresh = json.loads(fresh_path.read_text())
    except FileNotFoundError:
        print(
            f"perf-trajectory: no fresh report at {fresh_path} "
            "(run the matching benchmark first); skipping"
        )
        return 0
    except json.JSONDecodeError as exc:
        print(f"perf-trajectory: fresh report {fresh_path} is not valid JSON "
              f"({exc}); skipping")
        return 0
    try:
        baseline = load_baseline(baseline_spec, filename)
    except (subprocess.CalledProcessError, FileNotFoundError):
        print(f"perf-trajectory: no baseline for {filename} at "
              f"{baseline_spec}; skipping")
        return 0
    except json.JSONDecodeError as exc:
        print(f"perf-trajectory: baseline {baseline_spec} ({filename}) is "
              f"not valid JSON ({exc}); skipping")
        return 0

    checked = [
        m for m in metrics_fn(fresh)
        if _dig(baseline, m) is not None and _dig(fresh, m) is not None
    ]
    regressions = compare(fresh, baseline, tolerance, metrics_fn)
    print(
        f"perf-trajectory: {filename}: {len(checked)} metrics vs "
        f"{baseline_spec} (tolerance {tolerance:.0%})"
    )
    for metric, base, new, ratio in regressions:
        print(
            f"  REGRESSION {metric}: {base:.1f} us -> {new:.1f} us "
            f"({ratio:.2f}x)"
        )
    if regressions:
        print(f"perf-trajectory: {filename}: FAIL")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", default=str(DEFAULT_FRESH),
                        help="freshly generated kernel report (default: repo "
                             "root; sibling reports are read from the same "
                             "directory)")
    parser.add_argument("--baseline", default="git:HEAD",
                        help="committed reports: a path or git:REF")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="allowed slowdown fraction (env PERF_TOLERANCE)")
    args = parser.parse_args(argv)

    fresh_dir = Path(args.fresh).parent
    failed = 0
    for filename, metrics_fn in REPORTS:
        fresh_path = (
            Path(args.fresh) if filename == "BENCH_kernel.json"
            else fresh_dir / filename
        )
        failed += check_report(
            filename, metrics_fn, fresh_path, args.baseline, args.tolerance
        )
    if failed:
        print("perf-trajectory: FAIL")
        return 1
    print("perf-trajectory: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
