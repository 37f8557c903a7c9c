"""Trajectory analysis: cluster finding and precipitation statistics."""

from .diffusion import (
    DisplacementTracker,
    analytic_vacancy_diffusivity,
    measure_vacancy_diffusivity,
)
from .clusters import (
    DisjointSet,
    cluster_sizes,
    find_clusters,
    find_clusters_networkx,
)
from .order import warren_cowley
from .precipitation import PrecipitationStats, analyse_precipitation

__all__ = [
    "DisplacementTracker",
    "analytic_vacancy_diffusivity",
    "measure_vacancy_diffusivity",
    "DisjointSet",
    "cluster_sizes",
    "find_clusters",
    "find_clusters_networkx",
    "warren_cowley",
    "PrecipitationStats",
    "analyse_precipitation",
]
