"""The benchmark's one command.

``python3 -m benchmarks.e2e --workload W --seed S --seconds T --trace 0|1``
is the ``BENCHMARK.json`` command: it measures one workload and prints, as
the last line of standard output, the JSON result the contract asks for -
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.

``python3 -m benchmarks.e2e --seed S`` measures all four workloads,
interleaved A B C D A B C D ..., then one traced repeat of each.

Either way it checks the outputs, prints every metric by name with its
unit and writes the results file ``compare.py`` diffs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from benchmarks.e2e import fixtures, harness, layers
from benchmarks.e2e.workloads import BASE_SECONDS, MIN_BUDGET, WORKLOADS

#: Untraced full-budget repeats (fresh child processes) of one workload.
#: One workload alone: what the contract's time cap (92 runs in 3420 s)
#: leaves room for at the issue's budgets.
RUN_REPEATS = 2
#: The full set: with five the quartiles ``compare.py`` judges by are no
#: longer the extremes.
SET_REPEATS = 5
#: Set-up-only repeats (the smallest budget: set-up, a few units, exit) that
#: top the two set-up samples of one workload alone up to five, so
#: ``setup_s`` is a median there too.  It needs to be: the hypervisor takes
#: a finished child's pages back after a few seconds, and a child that
#: must fault them in again sets up 0.2-0.5 s slower than one that starts
#: right after a child of the same footprint.
SETUP_REPEATS = 3
#: ``--smoke`` budget scale: a self-test, not a measurement.
SMOKE_SCALE = 1.0 / 40.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python3 -m benchmarks.e2e", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(BASE_SECONDS),
                        help="steady state the full repeats of one contract "
                             "run measure together; budgets scale with it "
                             "(BENCHMARK.json's run_seconds, the default, is "
                             "the only value results are compared at)")
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="measure this workload alone and end with the "
                             "contract's JSON line (needs --trace)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: 0 = end-to-end metrics from "
                             "untraced repeats, 1 = per-layer metrics from "
                             "one untraced and one traced repeat")
    parser.add_argument("--smoke", action="store_true",
                        help="1/40 budgets, one repeat: checks the harness, "
                             "measures nothing")
    parser.add_argument("--out", default=None,
                        help="results file (default: under benchmarks/e2e/out/)")
    args = parser.parse_args(argv)
    if (args.workload is None) != (args.trace is None):
        parser.error("--workload and --trace go together")
    harness.require_program()

    if args.workload is None:
        names, repeats, setups, traced = list(WORKLOADS), SET_REPEATS, 0, True
    elif args.trace:
        names, repeats, setups, traced = [args.workload], 1, 0, True
    else:
        names, repeats, setups, traced = (
            [args.workload], RUN_REPEATS, SETUP_REPEATS, False)
    seconds = args.seconds
    if args.smoke:
        seconds, repeats, setups = seconds * SMOKE_SCALE, 1, 0
    tag = "{}_seed{}{}".format(
        args.workload or "set", args.seed,
        "" if args.trace is None else f"_trace{args.trace}")
    out_path = args.out or os.path.join(
        harness.HERE, "out", f"results_{tag}.json")

    session = harness.Session(tag)
    for name in names:
        session.potential(WORKLOADS[name].rcut)
    env = fixtures.env_block()
    env["loadavg_before"] = os.getloadavg()
    env["canary_before_s"] = fixtures.canary_seconds()
    started = time.time()

    budgets = {n: WORKLOADS[n].budget(seconds) for n in names}
    plain = {n: [] for n in names}
    setup_only = {n: [] for n in names}
    for _ in range(repeats):
        for n in names:
            plain[n].append(
                session.run_child(WORKLOADS[n], args.seed, budgets[n], False))
    for _ in range(setups):
        for n in names:
            setup_only[n].append(session.run_child(
                WORKLOADS[n], args.seed, MIN_BUDGET, False))
    trace_runs = {
        n: session.run_child(WORKLOADS[n], args.seed, budgets[n], True)
        for n in names if traced
    }
    env["canary_after_s"] = fixtures.canary_seconds()
    env["loadavg_after"] = os.getloadavg()
    env["canary_drift"] = env["canary_after_s"] / env["canary_before_s"] - 1.0

    results = {
        "schema": 2, "seed": args.seed, "k": repeats, "seconds": seconds,
        "smoke": args.smoke, "elapsed_s": time.time() - started,
        "env": env, "fixtures": session.fixtures, "workloads": {},
    }
    units = {m.name: m.unit for m in layers.END_TO_END + layers.PER_LAYER}
    for n in names:
        e2e = harness.end_to_end(plain[n], setup_only[n])
        block = results["workloads"][n] = {
            "argv": plain[n][0]["argv"], "budget": budgets[n],
            "digest": e2e["digest"], "attempted": e2e["attempted"],
            "failed": e2e["failed"], "problems": e2e["problems"],
            "end_to_end": {
                **(e2e["metrics"] or {}),
                "failed_share": harness.spread_stats([e2e["failed_share"]]),
            },
            "raw": e2e["raw"],
        }
        print(f"== {n}: {' '.join(block['argv'])}")
        print(f"{n} digest = {e2e['digest']}")
        for problem in e2e["problems"]:
            print(f"FAILED {n}: {problem}")
        for name, stats in block["end_to_end"].items():
            print(f"{n} {name} = {stats['median']:.6g} "
                  f"{units.get(name, 'ratio')} "
                  f"(quartiles {stats['q1']:.6g}..{stats['q3']:.6g}, "
                  f"min {stats['min']:.6g}, max {stats['max']:.6g}, "
                  f"n {stats['n']})")
        if traced:
            good = [r for r in plain[n] if not r["problems"]]
            report = harness.layer_report(good, trace_runs[n], e2e["raw"])
            block["per_layer"] = report.pop("metrics")
            block["trace"] = report
            for warning in report["warnings"]:
                print(f"warning {n}: {warning}")
            for name, value in block["per_layer"].items():
                shown = "null" if value is None else f"{value:.6g}"
                print(f"{n} {name} = {shown} {units[name]}")
    print(f"canary drift = {100 * env['canary_drift']:+.1f} % "
          f"({env['canary_before_s']:.3f} s -> {env['canary_after_s']:.3f} s), "
          f"loadavg {env['loadavg_before'][0]:.2f} -> "
          f"{env['loadavg_after'][0]:.2f}")
    with open(out_path, "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"results -> {os.path.relpath(out_path)}")

    failed = any(b["failed"] for b in results["workloads"].values())
    if args.workload is None:
        return 1 if failed else 0
    block = results["workloads"][args.workload]
    if args.trace:
        # A metric whose span no longer exists is null in the reports; the
        # contract line wants numbers, so it reads 0 there and
        # trace.missing_wraps says how many did.
        values = {k: 0.0 if v is None else v
                  for k, v in block["per_layer"].items()}
    elif "wall_s" not in block["end_to_end"]:
        print(f"FAILED {args.workload}: no repeat passed, nothing to report")
        return 1
    else:
        values = {m.name: block["end_to_end"][m.name]["median"]
                  for m in layers.END_TO_END}
    print(json.dumps({
        "correct": not failed,
        "attempted": block["attempted"],
        "failed": block["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
