"""Analytic memory accounting for OpenKMC vs TensorKMC (Table 1).

The byte counts below describe exactly the arrays our two engines allocate
(validated against the live allocations in the test-suite) and scale linearly
in the number of sites, so they can be extrapolated to the paper's
2/16/54/128-million-atom columns.  Absolute bytes per atom differ from the
paper's C++ structs; the *structure* of the comparison — which arrays exist,
which scale with the domain, and which vanish thanks to the vacancy cache —
is the reproduced result.
"""

from __future__ import annotations

from typing import Dict

from ..constants import DESCRIPTOR_N_SETS, N_ELEMENTS
from ..core.rowcache import ROW_ENTRY_BYTES
from ..core.tet import TripleEncoding
from ..core.vacancy_system import miss_transient_bytes
from ..potentials.tables import FeatureTable

__all__ = [
    "openkmc_memory_model",
    "tensorkmc_memory_model",
    "format_table",
    "MB",
]

#: One mebibyte, for table formatting.
MB = 1024.0 * 1024.0


def openkmc_memory_model(
    n_sites: int,
    mode: str = "eam",
) -> Dict[str, float]:
    """Bytes of each OpenKMC per-atom array for an ``n_sites`` domain.

    Parameters
    ----------
    n_sites:
        Number of local lattice sites.
    mode:
        ``"eam"`` charges the classic ``E_V``/``E_R`` doubles; ``"nnp"``
        charges per-atom feature vectors instead (the Sec. 4.3.4 analogy),
        :data:`~repro.constants.DESCRIPTOR_N_SETS` floats per element.
    """
    report: Dict[str, float] = {
        "lattice": float(n_sites) * 1,  # uint8 occupancy
        "T": float(n_sites) * 4,  # int32 per-site type/flag array
        "POS_ID": float(n_sites) * 8,  # int64 dense lookup
    }
    if mode == "eam":
        report["E_V"] = float(n_sites) * 8
        report["E_R"] = float(n_sites) * 8
    elif mode == "nnp":
        report["features"] = float(n_sites) * N_ELEMENTS * DESCRIPTOR_N_SETS * 4
    else:
        raise ValueError(f"unknown mode {mode!r}")
    report["total"] = sum(v for k, v in report.items() if k != "total")
    return report


def tensorkmc_memory_model(
    n_sites: int,
    n_vacancies: int,
    tet: TripleEncoding,
    table: FeatureTable | None = None,
    delta_snapshots: bool = True,
    row_cache: int = 0,
) -> Dict[str, float]:
    """Bytes of the TensorKMC state for the same domain.

    Only the occupancy array scales with the domain; the vacancy cache scales
    with the (dilute) vacancy count, and the shared TET/feature tables are
    O(1).  A live entry is the paper's VET ids, VET codes and rate row;
    ``delta_snapshots`` adds the incremental-rebuild payload every engine's
    entries carry (the per-trial-state row-energy matrix plus the dirty-row
    mask), which makes ``VAC_cache`` equal
    :meth:`~repro.core.vacancy_cache.VacancyCache.memory_bytes` of a cache
    whose live slots are all fresh.  Pass ``False`` for the paper's entry
    alone (Table 1).
    ``row_cache`` charges the persistent row-energy memo by resident entry
    count at :data:`~repro.core.rowcache.ROW_ENTRY_BYTES` per entry (the
    open-addressing table's worst case: code and energy in up to four
    slots, 64 B) — the same figure
    :meth:`RowEnergyCache.memory_bytes` reports, and a bound on the
    table's arrays, so the analytic term is validated against live bytes
    like the snapshots are.
    In a dilute alloy the distinct-environment count saturates at a tiny,
    domain-independent value, so this term is O(1) in practice (and the
    cache's byte budget, :data:`~repro.core.rowcache.ROW_CACHE_BYTES` by
    default, makes it O(1) by construction).

    ``miss_transient`` is not resident: it is the scratch memory of the
    largest miss-pipeline chunk the cold refresh of ``n_vacancies`` runs
    (:func:`~repro.core.vacancy_system.miss_transient_bytes`, the same
    per-row figure the evaluator sizes its chunks with).  It is bounded by
    :data:`~repro.core.vacancy_system.MISS_CHUNK_BYTES`, so ``total`` is a
    bound on the peak, not only the resident size.
    """
    entry_bytes = (
        tet.n_all * 1  # vet (uint8)
        + 8 * 8  # rates (float64, 8 directions)
    )
    if delta_snapshots:
        n_states = 1 + tet.N_DIRECTIONS  # resident + 8 trial swaps
        entry_bytes += (
            n_states * tet.n_region * 8  # row-energy snapshot (float64)
            + tet.n_region * 1  # dirty-row mask (bool)
        )
    tet_bytes = (
        tet.all_offsets.nbytes + tet.net_ids.nbytes + tet.cet_offsets.nbytes
        + tet.cet_shell.nbytes
    )
    report: Dict[str, float] = {
        "lattice": float(n_sites) * 1,
        "VAC_cache": float(n_vacancies) * entry_bytes,
        "TET_tables": float(tet_bytes),
        "feature_table": float(table.table.nbytes) if table is not None else 0.0,
        "row_cache": float(row_cache) * ROW_ENTRY_BYTES,
        "miss_transient": float(miss_transient_bytes(tet, n_vacancies)),
    }
    report["total"] = sum(v for k, v in report.items() if k != "total")
    return report


def format_table(rows: Dict[str, Dict[str, float]], unit: float = MB) -> str:
    """Render memory reports as an aligned text table (bench output)."""
    keys = sorted({k for row in rows.values() for k in row})
    keys = [k for k in keys if k != "total"] + ["total"]
    header = "array".ljust(14) + "".join(name.rjust(16) for name in rows)
    lines = [header]
    for key in keys:
        cells = "".join(
            f"{rows[name].get(key, 0.0) / unit:16.2f}" for name in rows
        )
        lines.append(key.ljust(14) + cells)
    return "\n".join(lines)
