"""Every function, class and public method of ``repro`` has a caller.

A name is *reached* when it appears, as a whole word, in the code of
``src/``, ``benchmarks/`` or ``examples/`` other than its own definition
or an import (package re-exports).  Comments and string literals do not
count, so neither does a docstring that mentions a name nor an
``__all__`` list.  Tests do not count either: a name only its own tests
call is code the program does not need.

The scan is a lower bound on dead code, not an exact call graph.  It
matches bare names, so a method that shares its name with a live one
(``VacancyCache.invalidate_near`` with ``DeltaRebuilder.invalidate_near``,
say) always looks reached.
"""

import ast
import re
import tokenize
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Names nothing in the program reaches but that stay, with the reason.
KEEP = {
    "find_clusters_networkx": "reference the union-find cluster finder is tested against",
    "conv1x1_matmul": "reference the loop and fused operators are tested against",
    "bias_add": "reference the fused operator is tested against",
    "relu": "reference the fused operator is tested against",
    "OpenKMCEngine.atom_energy_from_arrays": "only check that the baseline's Eq. 7 arrays are right",
    "SerialAKMCBase.build_system": "scalar (vet, rates) oracle of the batched evaluation",
    "first_nn_offsets": "helper of the geometry and occupancy tests",
    "LocalWindow.padded_cell_of_global": "helper of the ghost-exchange tests",
    "LatticeState.place_species": "helper of the stencil tests",
    "FaultPlan.pending_events": "helper of the fault-injection tests",
    "PhaseProfiler.reset": "waits for the run reporter that replaces the profiler",
    "load_events": "io/ waits for the run reporter that replaces it",
    "write_xyz_trajectory": "io/ waits for the run reporter that replaces it",
    "_species_name": "io/ waits for the run reporter that replaces it",
    "save_events": "io/ waits for the run reporter that replaces it",
    "replay_events": "io/ waits for the run reporter that replaces it",
    "features_mpe_serial": "reference the fast feature operator is tested against",
    "window_images": "reference the vectorised ghost apply is tested against",
    "LocalWindow.is_local_half": "reference the scalar RankState.is_local is tested against",
    "SectorGeometry.sector_of_half": "reference the scalar RankState.sector_of is tested against",
    "OpenKMCEngine.memory_report": "live array bytes Table 1's memory model is tested against",
    "AtomicNetwork.set_parameters": "helper of the network and tile-GEMM tests",
    "SimComm.recv": "helper of the messaging and fault-injection tests",
    "LocalWindow.set_species_at_half": "the e2e tracer wraps it by name",
    "NNPotential.energies_from_counts_fused": "the e2e tracer wraps it by name",
    "VacancyCache.invalidate_slots": "the e2e tracer wraps it by name",
    "VacancySystemEvaluator.trial_vets_batch": "the e2e tracer wraps it by name",
}

#: Code that defines or re-exports a name rather than using it.
_NOT_A_USE = re.compile(
    r"^[ \t]*from\s[ .\w]*import\s+\([^)]*\)"
    r"|^[ \t]*(?:from\s[ .\w]*)?import\s[^\n]*"
    r"|\b(?:def|class)\s+\w+",
    re.M | re.S,
)


def _code(path: Path) -> str:
    """The tokens of ``path`` without its comments and string literals,
    one line of code a line."""
    with tokenize.open(path) as f:
        return " ".join(
            "\n" if tok.type in (tokenize.NEWLINE, tokenize.NL) else tok.string
            for tok in tokenize.generate_tokens(f.readline)
            if tok.type not in (tokenize.COMMENT, tokenize.STRING)
        )


def _uses() -> Counter:
    words: Counter = Counter()
    for top in ("src", "benchmarks", "examples"):
        for path in (ROOT / top).rglob("*.py"):
            text = _NOT_A_USE.sub(" ", _code(path))
            words.update(re.findall(r"\w+", text))
    return words


def _definitions():
    """Qualified names of top-level functions/classes and public methods."""
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}"


def test_every_name_is_reached_or_kept():
    uses = _uses()
    defined = set(_definitions())
    unreached = {q for q in defined if uses[q.rsplit(".", 1)[-1]] == 0}
    assert sorted(unreached - set(KEEP)) == []
    # A kept name that gained a caller, or went away, leaves the list.
    assert sorted(set(KEEP) - unreached) == []
