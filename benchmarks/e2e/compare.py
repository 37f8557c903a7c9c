"""Compare two results files of ``python -m benchmarks.e2e``.

``python benchmarks/e2e/compare.py A.json B.json`` prints one row per
(end-to-end metric, workload): both medians with their min..max, the ratio
B / A, and a verdict against the bound ``BENCHMARK.json`` fixes:

* ``ok``          B's median is not worse than A's by more than the bound;
* ``regressed``   it is;
* ``unresolved``  the repeats of a side spread (distance between their
  quartiles) wider than the bound and the two ranges overlap, so the
  comparison cannot tell either way.

Exits non-zero when any row regressed.  A is the parent (or the first set
of a self-agreement check), B the change.  Two files measured with
different repeats, budgets (``seconds``) or in smoke mode are refused: run
length is set by the benchmark and is the same on both sides.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                        "BENCHMARK.json")

#: Not in the manifest (it is 0 on a healthy run): any increase regresses.
FAILED_SHARE = {"name": "failed_share", "unit": "ratio", "better": "lower",
                "bound": 0.0}


def verdict(a: Dict[str, float], b: Dict[str, float], better: str,
            bound: float) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one metric x workload."""
    sign = 1.0 if better == "lower" else -1.0
    base = abs(a["median"])
    worse_by = sign * (b["median"] - a["median"]) / base if base else (
        1.0 if sign * (b["median"] - a["median"]) > 0 else 0.0)
    spread = max(
        (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0
        for s in (a, b)
    )
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if spread > bound and overlap and bound > 0.0:
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(a: Dict[str, object], b: Dict[str, object],
            metrics: List[Dict[str, object]]) -> List[Dict[str, object]]:
    rows = []
    for name in a["workloads"]:
        for metric in metrics:
            sa = a["workloads"][name]["end_to_end"].get(metric["name"])
            sb: Optional[Dict[str, float]] = (
                b["workloads"].get(name, {}).get("end_to_end", {})
                .get(metric["name"]))
            if sa is None:
                continue
            row = {"workload": name, "metric": metric["name"],
                   "unit": metric["unit"], "a": sa, "b": sb}
            if sb is None:
                # The change could not measure what the parent could.
                row.update(ratio=None, verdict="regressed")
            else:
                row.update(
                    ratio=sb["median"] / sa["median"] if sa["median"] else None,
                    verdict=verdict(sa, sb, metric["better"], metric["bound"]),
                )
            rows.append(row)
    return rows


def _cell(stats: Optional[Dict[str, float]]) -> str:
    if stats is None:
        return "missing"
    return (f"{stats['median']:.5g} [{stats['min']:.5g}..{stats['max']:.5g}]"
            f" n={stats['n']}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.stderr.write("usage: compare.py A.json B.json\n")
        return 2
    with open(argv[0]) as fh:
        a = json.load(fh)
    with open(argv[1]) as fh:
        b = json.load(fh)
    for key in ("k", "seconds", "smoke"):
        if a[key] != b[key]:
            sys.stderr.write(
                f"error: {key} differs ({a[key]} vs {b[key]}): the two files "
                "were not measured the same way\n")
            return 2
    with open(MANIFEST) as fh:
        metrics = json.load(fh)["end_to_end"] + [FAILED_SHARE]
    rows = compare(a, b, metrics)
    print(f"A = {argv[0]} (seed {a['seed']}, k {a['k']})")
    print(f"B = {argv[1]} (seed {b['seed']}, k {b['k']})")
    print(f"{'workload':13s} {'metric':13s} {'A':38s} {'B':38s} "
          f"{'B/A':>7s} {'bound':>6s} verdict")
    for r in rows:
        bound = next(m["bound"] for m in metrics if m["name"] == r["metric"])
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.4f}"
        print(f"{r['workload']:13s} {r['metric']:13s} {_cell(r['a']):38s} "
              f"{_cell(r['b']):38s} {ratio:>7s} {bound:6.2f} {r['verdict']}")
    counts = {v: sum(r["verdict"] == v for r in rows)
              for v in ("ok", "unresolved", "regressed")}
    print(" ".join(f"{v}={n}" for v, n in counts.items()))
    return 1 if counts["regressed"] else 0


if __name__ == "__main__":
    sys.exit(main())
