"""Table 1 — memory statistics: OpenKMC vs TensorKMC.

Paper (per simulation box of 2 / 16 / 54 / 128 million atoms, MB):

* OpenKMC holds per-atom arrays T, POS_ID, E_V, E_R, all linear in the
  domain; it cannot hold 128 M atoms in one process;
* TensorKMC's VAC-cache is tiny (0.09 - 6 MB) because it scales with the
  dilute vacancy count, and the runtime footprint is ~1/3 of OpenKMC's
  (per-atom cost 0.70 kB -> 0.10 kB, Sec. 4.4.1).

Our byte counts describe the arrays this repository actually allocates
(validated against live engines in the test-suite) and are extrapolated
linearly to the paper's box sizes.  The model's ``total`` includes the
``miss_transient`` term — the scratch memory of one miss-pipeline chunk —
so it bounds the peak, not only the resident size.

The runtime column builds one small live NNP engine at the paper's
rcut 6.5 in a fresh child process (``python bench_table1_memory.py
--traced|--untraced``) and prints its traced peak and peak RSS beside the
model's resident + transient total.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import tracemalloc

import numpy as np

from repro.baseline import (
    MB,
    format_table,
    openkmc_memory_model,
    tensorkmc_memory_model,
)
from repro.core.engine import TensorKMCEngine
from repro.core.tet import TripleEncoding
from repro.io.report import ExperimentReport
from repro.lattice import LatticeState
from repro.nnp import ElementNetworks, NNPotential
from repro.potentials import FeatureTable

PAPER_SIZES_M = (2, 16, 54, 128)
#: Paper Table 1 rows (MB) for cross-reference in the printed report.
PAPER_OPENKMC_TOTAL_ARRAYS = {2: 238, 16: 1803, 54: 5983, 128: 14051}
PAPER_VAC_CACHE = {2: 0.09, 16: 1.50, 54: 2.53, 128: 6.00}

#: The live engine of the runtime column: 16^3 cells (8192 sites) at the
#: end-to-end workloads' Cu and vacancy fractions gives 41 vacancies, whose
#: cold refresh (93k rows at rcut 6.5) runs as four miss chunks.
LIVE_BOX = 16
LIVE_STEPS = 100


def test_table1_memory(experiment_reports, benchmark):
    tet = TripleEncoding(rcut=6.5)
    table = FeatureTable(tet.shell_distances)

    def build_models():
        rows = {}
        for m_atoms in PAPER_SIZES_M:
            n_sites = m_atoms * 1_000_000
            n_vac = max(int(8e-6 * n_sites), 1)
            rows[f"OpenKMC {m_atoms}M"] = openkmc_memory_model(n_sites, mode="eam")
            # Table 1 mirrors the paper's cache entry (no incremental-rebuild
            # snapshots); the delta-path surcharge is reported separately.
            rows[f"TensorKMC {m_atoms}M"] = tensorkmc_memory_model(
                n_sites, n_vac, tet, table, delta_snapshots=False
            )
        return rows

    rows = benchmark(build_models)

    report = ExperimentReport("Table 1", "memory statistics (MB per process)")
    for m_atoms in PAPER_SIZES_M:
        open_total = rows[f"OpenKMC {m_atoms}M"]["total"] / MB
        tensor_total = rows[f"TensorKMC {m_atoms}M"]["total"] / MB
        report.add(
            f"{m_atoms}M atoms: array totals",
            f"OpenKMC {PAPER_OPENKMC_TOTAL_ARRAYS[m_atoms]} MB (T+POS_ID+E_V+E_R)",
            f"OpenKMC {open_total:.0f} MB vs TensorKMC {tensor_total:.0f} MB",
            "C++ structs are wider than ours",
        )
        report.add(
            f"{m_atoms}M atoms: VAC cache",
            f"{PAPER_VAC_CACHE[m_atoms]:.2f} MB",
            f"{rows[f'TensorKMC {m_atoms}M']['VAC_cache'] / MB:.2f} MB",
        )
    ratio = rows["TensorKMC 54M"]["total"] / rows["OpenKMC 54M"]["total"]
    report.add(
        "TensorKMC / OpenKMC memory", "~1/3 (runtime)",
        f"{ratio:.2f} (arrays + one miss chunk)",
        "runtime: see Table 1 (runtime)",
    )
    n_vac_128 = max(int(8e-6 * 128_000_000), 1)
    with_delta = tensorkmc_memory_model(
        128_000_000, n_vac_128, tet, table, delta_snapshots=True
    )
    report.add(
        "128M VAC cache with delta snapshots",
        "n/a (this repo's incremental rebuild path)",
        f"{with_delta['VAC_cache'] / MB:.2f} MB "
        f"(vs {rows['TensorKMC 128M']['VAC_cache'] / MB:.2f} MB base)",
        "still O(n_vacancies), dwarfed by the lattice array",
    )
    experiment_reports(report)

    # Shape assertions.
    for m_atoms in PAPER_SIZES_M:
        open_row = rows[f"OpenKMC {m_atoms}M"]
        tensor_row = rows[f"TensorKMC {m_atoms}M"]
        # TensorKMC's resident arrays are far smaller, and its cache is
        # megabytes at most.  The one-chunk miss transient is a fixed
        # ~24 MiB, so the peak bound is far smaller too from 16M atoms on.
        resident = tensor_row["total"] - tensor_row["miss_transient"]
        assert resident < 0.34 * open_row["total"]
        if m_atoms >= 16:
            assert tensor_row["total"] < 0.34 * open_row["total"]
        assert tensor_row["VAC_cache"] / MB < 20.0
    # Linear growth of OpenKMC arrays; cache grows only with vacancies.
    assert rows["OpenKMC 128M"]["total"] == 64 * rows["OpenKMC 2M"]["total"]
    vac_ratio = rows["TensorKMC 128M"]["VAC_cache"] / rows["TensorKMC 2M"]["VAC_cache"]
    assert vac_ratio == 64.0  # vacancies scale with atoms at fixed concentration

    # Printable full table for the record.
    print()
    print(format_table(rows))


def peak_rss() -> int:
    """This process's peak resident bytes.

    ``VmHWM`` of ``/proc/self/status``: ``ru_maxrss`` of an exec'd child
    also counts the parent's high-water mark, which Linux carries across
    ``execve``.  Without ``/proc``, ``ru_maxrss`` read in its Linux unit,
    KiB.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def live_engine_memory(traced: bool) -> dict:
    """Build and run the runtime column's engine in this process.

    Returns the model inputs and what was measured: the peak RSS before the
    engine exists (the interpreter + NumPy floor) and at the end, and,
    when ``traced``, the ``tracemalloc`` resident and peak bytes of the
    engine's construction, cold refresh and ``LIVE_STEPS`` events.
    """
    floor = peak_rss()
    if traced:
        tracemalloc.start()
    tet = TripleEncoding(rcut=6.5)
    table = FeatureTable(tet.shell_distances)
    nets = ElementNetworks(
        (2 * table.n_dim, 128, 128, 128, 64, 1), np.random.default_rng(11)
    )
    lattice = LatticeState((LIVE_BOX,) * 3)
    lattice.randomize_alloy(np.random.default_rng(3), 0.0134, 0.005)
    engine = TensorKMCEngine(
        lattice, NNPotential(table, nets, rcut=6.5), tet,
        temperature=1200.0, rng=np.random.default_rng(4),
    )
    engine.run(n_steps=LIVE_STEPS)
    out = {
        "n_sites": lattice.n_sites,
        "n_vacancies": len(lattice.vacancy_ids),
        "row_cache_entries": len(engine.row_cache),
        "rss_floor": floor,
        "peak_rss": peak_rss(),
    }
    if traced:
        out["traced_resident"], out["traced_peak"] = (
            tracemalloc.get_traced_memory()
        )
        tracemalloc.stop()
    return out


def _live_in_child(traced: bool) -> dict:
    """:func:`live_engine_memory` in a fresh interpreter (its own RSS)."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    flag = "--traced" if traced else "--untraced"
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), flag],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def test_table1_runtime(experiment_reports, benchmark):
    """The "~1/3 runtime memory" row, measured on a live engine."""
    traced = benchmark.pedantic(
        _live_in_child, args=(True,), rounds=1, iterations=1
    )
    plain = _live_in_child(False)
    tet = TripleEncoding(rcut=6.5)
    model = tensorkmc_memory_model(
        traced["n_sites"], traced["n_vacancies"], tet,
        FeatureTable(tet.shell_distances),
        row_cache=traced["row_cache_entries"],
    )
    transient = model["miss_transient"]
    resident = model["total"] - transient
    report = ExperimentReport(
        "Table 1 (runtime)",
        f"live NNP engine, rcut 6.5, {traced['n_sites']} sites, "
        f"{traced['n_vacancies']} vacancies, cold refresh + {LIVE_STEPS} "
        "events (MiB)",
    )
    report.add(
        "model: resident + miss transient",
        "~1/3 of OpenKMC at runtime",
        f"{resident / MB:.1f} + {transient / MB:.1f} = "
        f"{model['total'] / MB:.1f}",
        "transient = one miss chunk, a fixed cost",
    )
    report.add(
        "traced (tracemalloc) resident / peak",
        "n/a",
        f"{traced['traced_resident'] / MB:.1f} / "
        f"{traced['traced_peak'] / MB:.1f}",
        "resident adds what the model omits: NNP weights, kernel arrays",
    )
    above_floor = plain["peak_rss"] - plain["rss_floor"]
    report.add(
        "peak RSS (untraced child)",
        "n/a",
        f"{plain['peak_rss'] / MB:.1f} ({above_floor / MB:.1f} above the "
        f"{plain['rss_floor'] / MB:.1f} interpreter floor)",
        "the floor is the interpreter + NumPy",
    )
    experiment_reports(report)
    # The traced peak above the resident state stays within the modelled
    # transient, plus the refresh's O(batch) outputs (two float64 values
    # per row of the cold batch; see tests/test_mode_matrix.py).
    rows = traced["n_vacancies"] * (1 + tet.N_DIRECTIONS) * tet.n_region
    excess = traced["traced_peak"] - traced["traced_resident"]
    assert excess <= transient + 16 * rows


if __name__ == "__main__":
    print(json.dumps(live_engine_memory(sys.argv[1:] == ["--traced"])))
