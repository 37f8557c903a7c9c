"""Body-centred-cubic lattice geometry.

A BCC lattice is represented as two interpenetrating simple-cubic sublattices:
sublattice 0 sits at integer cell corners ``(i, j, k) * a`` and sublattice 1 at
body centres ``(i + 1/2, j + 1/2, k + 1/2) * a``.  Internally all displacement
arithmetic uses *half-unit* integer coordinates (units of ``a / 2``): a site on
sublattice ``s`` in cell ``(i, j, k)`` has half-coordinates
``(2 i + s, 2 j + s, 2 k + s)``.  A half-unit vector connects two valid BCC
sites iff its three components share parity: all-even offsets stay on the same
sublattice, all-odd offsets cross to the other one.

This module is purely geometric; occupancy lives in
:mod:`repro.lattice.occupancy`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..constants import LATTICE_CONSTANT

__all__ = ["BCCGeometry", "NeighborShells", "first_nn_offsets"]


def first_nn_offsets() -> np.ndarray:
    """The eight first-nearest-neighbour half-unit offsets ``(+-1, +-1, +-1)``.

    In a BCC lattice every site has exactly eight 1NN sites at distance
    ``sqrt(3)/2 * a``; these are the only legal vacancy-hop directions in the
    AKMC model (paper Sec. 2.1).
    """
    signs = np.array([-1, 1], dtype=np.int64)
    grid = np.stack(np.meshgrid(signs, signs, signs, indexing="ij"), axis=-1)
    return grid.reshape(8, 3)


@dataclass(frozen=True)
class NeighborShells:
    """Neighbour shells of a BCC site within a Euclidean cutoff.

    Attributes
    ----------
    offsets:
        ``(n, 3)`` int64 array of half-unit offsets, sorted by distance then
        lexicographically, excluding the origin.
    distances:
        ``(n,)`` float64 array of Euclidean distances in Angstrom, aligned with
        ``offsets``.
    shell_index:
        ``(n,)`` int64 array mapping each offset to its shell (0 = 1NN shell).
    shell_distances:
        ``(n_shells,)`` float64 array with the distance of each shell.
    shell_counts:
        ``(n_shells,)`` int64 array with the multiplicity of each shell.
    """

    offsets: np.ndarray
    distances: np.ndarray
    shell_index: np.ndarray
    shell_distances: np.ndarray
    shell_counts: np.ndarray

    @property
    def n_sites(self) -> int:
        """Number of neighbour sites within the cutoff."""
        return int(self.offsets.shape[0])

    @property
    def n_shells(self) -> int:
        """Number of distinct neighbour shells within the cutoff."""
        return int(self.shell_distances.shape[0])


class BCCGeometry:
    """Stateless BCC geometry helper for a given lattice constant.

    Parameters
    ----------
    a:
        Cubic lattice constant in Angstrom.  Defaults to the paper's
        2.87 Angstrom for Fe.
    """

    def __init__(self, a: float = LATTICE_CONSTANT) -> None:
        if a <= 0:
            raise ValueError(f"lattice constant must be positive, got {a!r}")
        self.a = float(a)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BCCGeometry(a={self.a})"

    def half_unit(self) -> float:
        """Length of one half-unit in Angstrom (``a / 2``)."""
        return self.a / 2.0

    def offset_distance(self, offsets: np.ndarray) -> np.ndarray:
        """Euclidean length in Angstrom of half-unit offset vectors."""
        offsets = np.asarray(offsets, dtype=np.float64)
        return self.half_unit() * np.sqrt(np.sum(offsets * offsets, axis=-1))

    def shells_within(self, rcut: float) -> NeighborShells:
        """Enumerate all neighbour sites within ``rcut`` Angstrom of a site.

        The enumeration walks half-unit vectors with matching component parity
        (the BCC validity condition) inside the bounding cube and filters by
        Euclidean distance.  For the paper's standard cutoff of 6.5 Angstrom at
        ``a = 2.87`` this yields exactly 112 sites in 8 shells (Sec. 4.1.1).
        """
        if rcut <= 0:
            raise ValueError(f"rcut must be positive, got {rcut!r}")
        max_half = int(np.floor(2.0 * rcut / self.a))
        rng = np.arange(-max_half, max_half + 1, dtype=np.int64)
        grid = np.stack(np.meshgrid(rng, rng, rng, indexing="ij"), axis=-1)
        cand = grid.reshape(-1, 3)
        parity = cand & 1
        same_parity = (parity[:, 0] == parity[:, 1]) & (parity[:, 1] == parity[:, 2])
        nonzero = np.any(cand != 0, axis=1)
        cand = cand[same_parity & nonzero]
        dist = self.offset_distance(cand)
        keep = dist <= rcut + 1e-9
        cand = cand[keep]
        dist = dist[keep]
        order = np.lexsort((cand[:, 2], cand[:, 1], cand[:, 0], dist))
        cand = cand[order]
        dist = dist[order]
        # Group into shells by distance (discrete on a rigid lattice).
        shell_distances, shell_index = _group_shells(dist)
        shell_counts = np.bincount(shell_index, minlength=shell_distances.shape[0])
        return NeighborShells(
            offsets=cand,
            distances=dist,
            shell_index=shell_index,
            shell_distances=shell_distances,
            shell_counts=shell_counts.astype(np.int64),
        )


def _group_shells(sorted_distances: np.ndarray, tol: float = 1e-8) -> Tuple[np.ndarray, np.ndarray]:
    """Group sorted distances into discrete shells within a tolerance."""
    if sorted_distances.size == 0:
        return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
    boundaries = np.diff(sorted_distances) > tol
    shell_index = np.concatenate(([0], np.cumsum(boundaries))).astype(np.int64)
    n_shells = int(shell_index[-1]) + 1
    shell_distances = np.empty(n_shells, dtype=np.float64)
    for s in range(n_shells):
        shell_distances[s] = sorted_distances[shell_index == s].mean()
    return shell_distances, shell_index
