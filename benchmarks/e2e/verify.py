"""Output checks: what makes a repeat count as failed.

A repeat fails *all* of its requested units when the child died or exited
non-zero, ran fewer (or more) units than budgeted, broke species
conservation or ghost consistency, hit a blocked hop (anomaly), reported a
non-finite or backwards clock, or left a replica unreported.  The occupancy
digest is compared between repeats by :func:`harness.end_to_end`; it is
printed and stored as information, never pinned, so a later change that
legitimately alters trajectories needs no benchmark edit.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List

__all__ = ["check_child", "cli_values"]

_KEY_VALUE = re.compile(r"^(\w+) = (.*)$", re.MULTILINE)
_REPLICA = re.compile(
    r"^replica\[(\S+)\] events=(\d+) time_s=(\S+) frozen=(\w+)", re.MULTILINE
)


def cli_values(output: str) -> Dict[str, str]:
    """The ``key = value`` lines a ``repro`` command printed."""
    return dict(_KEY_VALUE.findall(output))


def check_child(workload, run: Dict[str, object]) -> List[str]:
    """Problems of one finished child; empty when every check passed."""
    res = run["result"]
    if run["process_exit"] != 0 or res is None:
        return [f"child exited {run['process_exit']} "
                f"(see {run['stem']}.stderr)"]
    problems = []
    if res["exit_code"] != 0:
        problems.append(f"CLI returned {res['exit_code']}")
    if len(res["stamps"]) != run["units_requested"]:
        problems.append(
            f"ran {len(res['stamps'])} units, budget was "
            f"{run['units_requested']}"
        )
    if res["bad_clock"]:
        problems.append(
            f"clock not finite/monotone at units {res['bad_clock'][:5]}")
    if res["errors"] or res["digest"] is None:
        problems.append(f"no occupancy digest: {res['errors']}")
    if not res["species_conserved"]:
        problems.append("species counts changed between first and last unit")
    if res["anomalies"]:
        problems.append(f"{res['anomalies']} anomalies (blocked hops)")

    cli = cli_values(res["cli_output"])
    command = run["argv"][0]
    total_events = sum(res["events"])
    if cli.get("events") != str(total_events):
        problems.append(
            f"CLI reports events = {cli.get('events')}, the stopwatch "
            f"counted {total_events}"
        )
    if command == "run":
        clock = float(cli.get("time_s", "nan"))
        if not (math.isfinite(clock) and clock > 0.0):
            problems.append(f"final time_s = {cli.get('time_s')}")
    elif command == "parallel":
        for key in ("species_conserved", "ghosts_consistent"):
            if cli.get(key) != "True":
                problems.append(f"{key} = {cli.get(key)}")
        if cli.get("cycles") != str(run["budget"]):
            problems.append(f"cycles = {cli.get('cycles')}")
        if cli.get("recoveries") != "0":
            problems.append(f"recoveries = {cli.get('recoveries')}")
    elif command == "campaign":
        replicas = _REPLICA.findall(res["cli_output"])
        wanted = int(run["argv"][run["argv"].index("--replicas") + 1])
        if len(replicas) != wanted or cli.get("replicas") != str(wanted):
            problems.append(
                f"{len(replicas)} of {wanted} replicas reported")
        for name, events, clock, frozen in replicas:
            if (int(events) != run["budget"] or frozen != "False"
                    or not math.isfinite(float(clock))):
                problems.append(
                    f"replica {name}: events={events} frozen={frozen} "
                    f"time_s={clock}"
                )
    return problems
