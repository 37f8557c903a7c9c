"""Synthetic Fe-Cu training data — the FHI-aims substitution (DESIGN.md).

The paper trains on 540 Fe-Cu structures of 60-64 atoms labelled by DFT
(Sec. 4.1.1).  We generate the same ensemble — BCC supercells with random Cu
substitution, 0-4 vacancies, and thermal displacements — and label it with
the analytic EAM oracle from :mod:`repro.potentials.eam`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..constants import CU, FE, LATTICE_CONSTANT
from ..potentials.eam import EAMPotential

__all__ = ["Structure", "generate_structures", "train_test_split"]


@dataclass
class Structure:
    """One labelled periodic training structure."""

    positions: np.ndarray  # (n, 3) Angstrom
    species: np.ndarray  # (n,) FE / CU
    cell: np.ndarray  # (3,) orthorhombic box lengths, Angstrom
    energy: float  # total energy, eV
    forces: np.ndarray  # (n, 3) eV / Angstrom

    @property
    def n_atoms(self) -> int:
        return int(self.species.shape[0])


def _bcc_supercell(
    cells: Sequence[int], a: float
) -> Tuple[np.ndarray, np.ndarray]:
    """Ideal BCC site positions and the box lengths for a cell grid."""
    nx, ny, nz = cells
    corners = np.stack(
        np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij"),
        axis=-1,
    ).reshape(-1, 3).astype(np.float64)
    centers = corners + 0.5
    positions = np.concatenate([corners, centers], axis=0) * a
    box = np.array([nx, ny, nz], dtype=np.float64) * a
    return positions, box


def generate_structures(
    oracle: EAMPotential,
    rng: np.random.Generator,
    n_structures: int = 540,
    cells: Sequence[int] = (2, 4, 4),
    a: float = LATTICE_CONSTANT,
    solute_codes: Sequence[int] = (CU,),
) -> List[Structure]:
    """Generate the paper's training ensemble labelled by the oracle.

    Each structure starts from a 64-site BCC supercell, substitutes a random
    solute fraction of up to 25 % in total, removes 0-4 atoms (sizes 60-64,
    as in the paper), and applies Gaussian thermal displacements with a
    per-structure amplitude of 0.01-0.10 A so the force distribution has
    diverse magnitudes.
    """
    base_positions, box = _bcc_supercell(cells, a)
    n_sites = base_positions.shape[0]
    structures: List[Structure] = []
    for _ in range(n_structures):
        species = np.full(n_sites, FE, dtype=np.int64)
        for code in solute_codes:
            frac = rng.uniform(0.0, 0.25 / len(solute_codes))
            species = np.where(
                (rng.random(n_sites) < frac) & (species == FE), code, species
            )
        n_vac = int(rng.integers(0, 5))
        keep = np.ones(n_sites, dtype=bool)
        if n_vac:
            keep[rng.choice(n_sites, size=n_vac, replace=False)] = False
        sigma = rng.uniform(0.01, 0.10)
        positions = base_positions[keep] + rng.normal(0.0, sigma, (keep.sum(), 3))
        spec = species[keep]
        energy, forces = oracle.energy_and_forces(positions, spec, box)
        structures.append(
            Structure(
                positions=positions,
                species=spec,
                cell=box.copy(),
                energy=energy,
                forces=forces,
            )
        )
    return structures


def train_test_split(
    structures: List[Structure], rng: np.random.Generator, n_train: int = 400
) -> Tuple[List[Structure], List[Structure]]:
    """Random split, paper-style: 400 train / remainder test (Sec. 4.1.1)."""
    if n_train >= len(structures):
        raise ValueError("n_train must leave a non-empty test set")
    order = rng.permutation(len(structures))
    train = [structures[i] for i in order[:n_train]]
    test = [structures[i] for i in order[n_train:]]
    return train, test
