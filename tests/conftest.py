"""Shared fixtures: small, fast instances of every subsystem."""

from __future__ import annotations

import numpy as np
import pytest

from repro.constants import RCUT_STANDARD
from repro.core.tet import TripleEncoding
from repro.lattice import LatticeState
from repro.nnp import ElementNetworks, NNPotential
from repro.potentials import EAMPotential, FeatureTable


@pytest.fixture(scope="session")
def tet_small() -> TripleEncoding:
    """Cheap TET (1NN + 2NN shells) for engine tests."""
    return TripleEncoding(rcut=2.87)


@pytest.fixture(scope="session")
def tet_standard() -> TripleEncoding:
    """The paper's standard 6.5-Angstrom TET (geometry assertions)."""
    return TripleEncoding(rcut=RCUT_STANDARD)


@pytest.fixture(scope="session")
def eam_small(tet_small: TripleEncoding) -> EAMPotential:
    return EAMPotential(tet_small.shell_distances)


@pytest.fixture(scope="session")
def eam_standard(tet_standard: TripleEncoding) -> EAMPotential:
    return EAMPotential(tet_standard.shell_distances)


@pytest.fixture()
def alloy_lattice(tet_small: TripleEncoding) -> LatticeState:
    """An 8^3-cell random Fe-Cu lattice with a few vacancies."""
    lattice = LatticeState((8, 8, 8))
    rng = np.random.default_rng(2024)
    lattice.randomize_alloy(rng, cu_fraction=0.05, vacancy_fraction=0.002)
    return lattice


def _random_nnp(tet: TripleEncoding, rcut: float) -> NNPotential:
    """An untrained (random-weight) NNP over ``tet``'s shells.

    Random weights are fine for algorithmic tests — the engines only need a
    deterministic CountsPotential.
    """
    rng = np.random.default_rng(11)
    table = FeatureTable(tet.shell_distances)
    nets = ElementNetworks((2 * table.n_dim, 16, 8, 1), rng)
    model = NNPotential(table, nets, rcut=rcut)
    # Non-trivial standardisation so both code paths are exercised.
    model.set_standardisation(
        feature_mean=np.full(2 * table.n_dim, 0.1, dtype=np.float32),
        feature_std=np.full(2 * table.n_dim, 2.0, dtype=np.float32),
        reference_energies=np.array([-4.0, -3.5]),
        energy_scale=0.05,
    )
    return model


@pytest.fixture(scope="session")
def nnp_small(tet_small: TripleEncoding) -> NNPotential:
    return _random_nnp(tet_small, 2.87)


@pytest.fixture(scope="session")
def tet_wide() -> TripleEncoding:
    """4-shell TET: rows of 8 (shell, species) counts, still cheap."""
    return TripleEncoding(rcut=4.8)


@pytest.fixture(scope="session")
def nnp_wide(tet_wide: TripleEncoding) -> NNPotential:
    return _random_nnp(tet_wide, 4.8)


@pytest.fixture(scope="session")
def nnp_standard(tet_standard: TripleEncoding) -> NNPotential:
    return _random_nnp(tet_standard, RCUT_STANDARD)
