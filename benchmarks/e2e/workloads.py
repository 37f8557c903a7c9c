"""The four CLI workloads and how their budgets scale with ``--seconds``.

Every workload is a plain ``repro`` command line with **defaults only**: no
mode knob (``--backend``, ``--row-cache*``, ``--executor/--workers``,
``--mode``, ``--evaluation``) is ever passed, so a later change that deletes
or re-defaults one of those seams needs no benchmark edit, and a seam "wins"
only by becoming what the default path does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["Workload", "WORKLOADS", "BASE_SECONDS", "MIN_BUDGET"]

#: ``--seconds`` value the ``base_budget`` numbers were sized for (it is
#: ``BENCHMARK.json``'s ``run_seconds``): the two full repeats of one
#: contract run together measure about this much steady state on the bench
#: box, set-up comes on top.  Budgets scale linearly with ``--seconds``;
#: the shape of a workload never changes.
BASE_SECONDS = 20

#: Smallest budget-flag value: one checkpoint interval of ``parallel4``.
MIN_BUDGET = 8


@dataclass(frozen=True)
class Workload:
    """One CLI invocation shape.

    ``argv`` may contain the placeholders ``{budget}``, ``{seed}``,
    ``{potential}`` and ``{checkpoint}``.  ``unit`` names the driver method
    the stopwatch sits on, as ``(module, class, method)``; one call of it is
    one *unit* (an event for ``run``/``campaign``, a cycle for
    ``parallel``).  ``units_per_budget`` converts the budget flag's value
    into units requested (8 replicas step once per budgeted step).
    """

    name: str
    why: str
    argv: Tuple[str, ...]
    rcut: float
    unit: Tuple[str, str, str]
    base_budget: int
    units_per_budget: int = 1

    def budget(self, seconds: float) -> int:
        """Budget-flag value for a run that measures ``seconds``."""
        return max(MIN_BUDGET,
                   int(round(self.base_budget * seconds / BASE_SECONDS)))

    def command(self, budget: int, seed: int, potential: str,
                checkpoint: str) -> List[str]:
        fill = {
            "budget": str(budget), "seed": str(seed),
            "potential": potential, "checkpoint": checkpoint,
        }
        return [a.format(**fill) for a in self.argv]


_STEP = ("repro.core.engine", "SerialAKMCBase", "step")
_CYCLE = ("repro.parallel.engine", "SublatticeKMC", "cycle")
_COMMON = ("--temperature", "1200", "--seed", "{seed}",
           "--potential", "{potential}")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serial_dense",
            why=("Python/NumPy-overhead-bound event loop on a large registry "
                 "(65536 sites, 1311 vacancies, row-cache hit ~0.997): fusing "
                 "gather/scatter/hop/invalidate shows here, a faster GEMM "
                 "does not."),
            argv=("run", "--box", "32", "--vacancies", "0.02",
                  "--steps", "{budget}", *_COMMON),
            rcut=2.87, unit=_STEP, base_budget=7000,
        ),
        Workload(
            name="serial_gemm",
            why=("Paper cutoff rcut=6.5 (N_region 253, VET 1181): encode + "
                 "tiled GEMM dominate an event and the row cache is bypassed, "
                 "so GEMM/encode/row-key changes show here, hop/invalidate "
                 "fusion does not."),
            argv=("run", "--box", "24", "--rcut", "6.5", "--vacancies",
                  "0.005", "--steps", "{budget}", *_COMMON),
            rcut=6.5, unit=_STEP, base_budget=1300,
        ),
        Workload(
            name="parallel4",
            why=("4-rank sublattice protocol, dilute small-batch regime "
                 "(stale batch ~1.4), ghost exchange and periodic "
                 "checkpoints: per-call overhead, exchange, comm, executor "
                 "and checkpoint changes show only here."),
            argv=("parallel", "--box", "16", "--ranks", "4", "--vacancies",
                  "0.005", "--cycles", "{budget}", "--t-stop", "1e-7",
                  "--checkpoint", "{checkpoint}", "--checkpoint-every", "8",
                  *_COMMON),
            rcut=2.87, unit=_CYCLE, base_budget=240,
        ),
        Workload(
            name="campaign8",
            why=("8 replicas with small registries (40 vacancies each) fused "
                 "into one ~40-row evaluation per round over a shared row "
                 "cache: campaign gather/scatter and shared-cache changes "
                 "show here."),
            argv=("campaign", "--box", "10", "--replicas", "8",
                  "--vacancies", "0.02", "--steps", "{budget}", *_COMMON),
            rcut=2.87, unit=_STEP, base_budget=1500, units_per_budget=8,
        ),
    )
}
