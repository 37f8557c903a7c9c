"""The miss pipeline probes every row and evaluates each missed code once.

``VacancySystemEvaluator._pair_energies`` looks up the row code of every
row in the row cache, groups only the rows that missed, and hands the
potential one row per distinct missed code.  Four cache states must give
bitwise-equal ``(P, 9)`` energies from ``evaluate_rows`` — no cache, a cold
cache, a half-warm one and a 16-entry budget that flushes mid-batch — and
in every chunk the potential must see exactly the distinct codes of that
chunk that the cache did not hold when the chunk began, once each, in
ascending order.  The codes are recomputed from a full
``region_features_counts`` encode, not from the pipeline's own codes.
"""

import copy

import numpy as np
import pytest

from repro.core import vacancy_system
from repro.core.engine import TensorKMCEngine
from repro.core.rowcache import (
    ROW_ENTRY_BYTES,
    RowEnergyCache,
    row_code_weights,
)
from repro.core.vacancy_system import VacancySystemEvaluator, miss_row_bytes
from repro.lattice import LatticeState
from repro.potentials import EAMPotential

#: Vacancies whose every region row is evaluated.
N_VACANCIES = 6
#: ``(vacancy, region row)`` pairs per chunk: no TET's pair count is a
#: multiple of it, so the last chunk is ragged.
CHUNK_PAIRS = 97
#: Entries of the budget that flushes mid-batch.
TINY_ENTRIES = 16


@pytest.fixture(params=["tet_small", "tet_wide"])
def tet(request):
    return request.getfixturevalue(request.param)


@pytest.fixture(params=["eam", "nnp"])
def potential(request, tet):
    if request.param == "eam":
        return EAMPotential(tet.shell_distances)
    name = "nnp_small" if tet.n_shells == 2 else "nnp_wide"
    return request.getfixturevalue(name)


@pytest.fixture()
def batch(tet, potential):
    """An evaluator, the VETs of ``N_VACANCIES`` vacancies, every one of
    their pairs and each pair's nine row codes from the full encode."""
    lattice = LatticeState((10, 10, 10))
    lattice.randomize_alloy(np.random.default_rng(7), 0.05, 0.01)
    engine = TensorKMCEngine(lattice, potential, tet)
    evaluator = engine.evaluator
    vets = engine.sites.gather(sorted(lattice.vacancy_ids)[:N_VACANCIES])
    assert len(vets) == N_VACANCIES
    n_region = tet.n_region
    pair_b = np.repeat(np.arange(len(vets)), n_region)
    pair_r = np.tile(np.arange(n_region), len(vets))
    states = evaluator.trial_vets_batch(vets)            # (B, 9, n_all)
    counts = evaluator.region_features_counts(
        states.reshape(-1, tet.n_all)
    )                                          # (B * 9, n_region, ...)
    weights, centre = row_code_weights(tet, evaluator.n_elements)
    codes = (
        counts.reshape(len(vets), 9, n_region, -1).astype(np.int64) @ weights
        + states[:, :, :n_region].astype(np.int64) * centre
    )                                                    # (B, 9, n_region)
    return evaluator, vets, pair_b, pair_r, codes[pair_b, :, pair_r]


@pytest.fixture()
def chunks(monkeypatch, batch, potential):
    """Per chunk: the codes the potential saw, and the distinct codes of
    the chunk that the row cache did not hold when the chunk began."""
    evaluator, _, _, _, codes = batch
    weights, centre = row_code_weights(evaluator.tet, evaluator.n_elements)
    seen, expected = [], []
    pair_energies = VacancySystemEvaluator._pair_energies
    energies_from_counts = type(potential).energies_from_counts

    def chunk(self, vets, pair_b, pair_r):
        rows = codes[pair_b * self.tet.n_region + pair_r].reshape(-1)
        held = np.zeros(len(rows), dtype=bool)
        if self.row_cache is not None:
            held = copy.deepcopy(self.row_cache).lookup(rows)[0]
        expected.append(np.unique(rows[~held]))
        seen.append([])
        return pair_energies(self, vets, pair_b, pair_r)

    def counted(self, centers, counts):
        seen[-1].extend(
            counts.reshape(len(centers), -1).astype(np.int64) @ weights
            + np.asarray(centers, dtype=np.int64) * centre
        )
        return energies_from_counts(self, centers, counts)

    monkeypatch.setattr(VacancySystemEvaluator, "_pair_energies", chunk)
    monkeypatch.setattr(type(potential), "energies_from_counts", counted)
    monkeypatch.setattr(
        vacancy_system, "MISS_CHUNK_BYTES",
        CHUNK_PAIRS * 9 * miss_row_bytes(evaluator.tet),
    )
    return seen, expected


def test_every_cache_state_gives_the_same_bits_and_evaluates_each_miss_once(
    batch, chunks
):
    evaluator, vets, pair_b, pair_r, _ = batch
    seen, expected = chunks
    half = RowEnergyCache()
    evaluator.attach_row_cache(half)
    evaluator.evaluate_rows(vets, pair_b[::2], pair_r[::2])
    assert len(half) > 0
    tiny = RowEnergyCache(max_bytes=TINY_ENTRIES * ROW_ENTRY_BYTES)
    results = {}
    for name, cache in [("none", None), ("cold", RowEnergyCache()),
                        ("half-warm", half), ("flushing", tiny)]:
        evaluator.attach_row_cache(cache)
        seen.clear()
        expected.clear()
        results[name] = evaluator.evaluate_rows(vets, pair_b, pair_r)
        assert len(seen) == -(-len(pair_b) // CHUNK_PAIRS) > 1, name
        for k, (got, want) in enumerate(zip(seen, expected)):
            assert np.array_equal(np.asarray(got, np.int64), want), (name, k)
    assert tiny.evictions > 0
    reference = results["none"]
    assert reference.shape == (len(pair_b), 9)
    for name, energies in results.items():
        assert energies.dtype == reference.dtype, name
        assert energies.tobytes() == reference.tobytes(), name
