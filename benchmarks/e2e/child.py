"""The measured child: one fresh process running ``repro.cli.main(argv)``.

``python3 child.py SPEC.json`` reads what to run, puts the stopwatch (and,
for a traced repeat, the span wrappers) on the program, calls the real CLI
entry point and writes everything it observed to ``spec["result"]``.  The
parent times spawn -> exit and reads peak RSS from ``os.wait4``; nothing in
here is timed by the child itself except the import and the unit stamps.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from time import perf_counter

def main(spec_path: str) -> int:
    t_enter = perf_counter()
    with open(spec_path) as fh:
        spec = json.load(fh)

    from benchmarks.e2e import trace  # imports numpy

    rec = trace.Recorder() if spec["traced"] else None
    watch = trace.Stopwatch(rec)
    t_numpy = perf_counter()
    watch.start_calibration()

    t0 = perf_counter()
    from repro import cli
    import_s = (perf_counter() - t0) + (t_numpy - t_enter)

    run_cli = cli.main
    if rec is not None:
        trace.install(rec)
        run_cli = rec.wrap(cli.main, "cli:main")
    watch.install(tuple(spec["unit"]))

    output = io.StringIO()
    try:
        with contextlib.redirect_stdout(output):
            code = run_cli(spec["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    watch.stop_calibration()

    result = {
        "import_s": import_s,
        "exit_code": code,
        "stamps": watch.stamps,
        "events": [int(e) for e in watch.events],
        "bad_clock": watch.bad_clock,
        "cal_t": watch.cal_t,
        "cal_d": watch.cal_d,
        "cli_output": output.getvalue(),
        **watch.finish(),
    }
    if rec is not None:
        n_units = len(watch.stamps)
        # No unit at all: everything the child did was set-up.
        first, last = (
            (watch.stamps[0], watch.stamps[-1]) if n_units
            else (float("inf"), float("inf"))
        )
        result["trace"] = {
            **rec.aggregate(first, last),
            "missing": rec.missing,
            "span_cost_s": rec.span_cost_s(),
            "counts": rec.counts,
            "setup_counts": rec.setup_counts,
            "objects": rec.object_stats(),
            "sector_events": [
                [rec.sector_events[u][r] for r in sorted(rec.sector_events[u])]
                for u in sorted(rec.sector_events) if 0 < u < n_units
            ],
        }
        with open(spec["spans"], "w") as fh:
            json.dump(rec.unit_trees(spec["span_every"]), fh)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
