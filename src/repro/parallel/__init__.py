"""Parallel AKMC: simulated MPI, decomposition, ghosts, sublattice driver."""

from .comm import CommStats, ProtocolError, SimComm, SimCommWorld, allreduce_sum
from .decomposition import GridDecomposition, choose_grid
from .engine import CycleStats, RankState, SublatticeKMC
from .faults import FAULT_KINDS, FaultEvent, FaultPlan
from .ghost import GhostExchanger, SiteUpdates, in_padded_box, window_images
from .recovery import run_resilient
from .scaling_model import (
    ScalingParameters,
    ScalingPoint,
    expected_max_events,
    parallel_efficiency,
    strong_scaling,
    weak_scaling,
)
from .sublattice import N_SECTORS, SectorGeometry

__all__ = [
    "CommStats",
    "ProtocolError",
    "SimComm",
    "SimCommWorld",
    "allreduce_sum",
    "GridDecomposition",
    "choose_grid",
    "CycleStats",
    "RankState",
    "SublatticeKMC",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "GhostExchanger",
    "SiteUpdates",
    "in_padded_box",
    "window_images",
    "run_resilient",
    "ScalingParameters",
    "ScalingPoint",
    "expected_max_events",
    "parallel_efficiency",
    "strong_scaling",
    "weak_scaling",
    "N_SECTORS",
    "SectorGeometry",
]
