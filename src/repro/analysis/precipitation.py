"""Precipitation statistics for the Fig. 8 validation and Fig. 14 application."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..constants import CU
from ..lattice.occupancy import LatticeState
from .clusters import cluster_sizes, find_clusters

__all__ = ["PrecipitationStats", "analyse_precipitation"]

#: Smallest cluster counted as a precipitate (``n_clusters``, density).
MIN_PRECIPITATE_SIZE = 2


@dataclass(frozen=True)
class PrecipitationStats:
    """Snapshot of the Cu precipitate population."""

    #: Simulated time of the snapshot (s).
    time: float
    #: Number of Cu atoms with no Cu 1NN/2NN neighbour (C_1 clusters, Fig. 8).
    isolated: int
    #: Number of clusters with >= 2 atoms.
    n_clusters: int
    #: Size of the largest cluster (C_max, Fig. 14).
    max_size: int
    #: Mean size of clusters with >= 2 atoms (0 when none exist).
    mean_size: float
    #: Precipitate number density in 1/m^3 (clusters >= 2 atoms / volume).
    number_density: float
    #: Full size histogram: ``histogram[s]`` clusters of size ``s``.
    histogram: Dict[int, int]


def analyse_precipitation(
    lattice: LatticeState,
    time: float = 0.0,
    species: int = CU,
    max_shell: int = 1,
) -> PrecipitationStats:
    """Cluster analysis of one lattice snapshot.

    ``number_density`` counts clusters of at least
    :data:`MIN_PRECIPITATE_SIZE` atoms per cubic metre, the quantity the
    paper stabilises at ~1.71e26 / m^3 in Sec. 5.
    """
    clusters = find_clusters(lattice, species=species, max_shell=max_shell)
    sizes = cluster_sizes(clusters)
    isolated = int(np.sum(sizes == 1)) if sizes.size else 0
    big = sizes[sizes >= MIN_PRECIPITATE_SIZE] if sizes.size else np.array([], dtype=np.int64)
    volume_m3 = lattice.volume * 1e-30  # A^3 -> m^3
    histogram: Dict[int, int] = {}
    for s in sizes:
        histogram[int(s)] = histogram.get(int(s), 0) + 1
    return PrecipitationStats(
        time=float(time),
        isolated=isolated,
        n_clusters=int(big.size),
        max_size=int(sizes[0]) if sizes.size else 0,
        mean_size=float(big.mean()) if big.size else 0.0,
        number_density=float(big.size) / volume_m3,
        histogram=histogram,
    )
