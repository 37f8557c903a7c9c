"""Strong / weak scaling model (paper Figs. 12-13).

We cannot run 27 million cores, so the scalability curves are produced by a
calibrated analytic model of the synchronous sublattice protocol.  Its two
inputs are *measured* on real multi-rank runs of this repository:

* ``compute_seconds_per_event`` — wall time of one vacancy-system evaluation
  plus event bookkeeping on one CG (the `SublatticeKMC` compute phase);
* ``bytes_per_boundary_site`` — ghost traffic per changed boundary site
  (counted by SimComm).

Per cycle a CG then costs::

    T_cycle = events_per_cg * t_event                       (compute)
            + n_msgs * latency + bytes / bandwidth           (ghost exchange)
            + log2(P) * allreduce_latency                    (synchronisation)

Strong scaling divides a fixed system over more CGs (events per CG shrink,
communication per CG stays ~constant -> efficiency falls slowly); weak
scaling fixes the per-CG system (both terms constant; only the log-depth
synchronisation grows).  This is the same cost structure the paper's 85%
strong-scaling efficiency at 32x follows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

__all__ = [
    "ScalingParameters",
    "ScalingPoint",
    "strong_scaling",
    "weak_scaling",
    "parallel_efficiency",
    "CORES_PER_CG",
]

#: Cores per core group on the SW26010-pro (1 MPE + 64 CPEs).
CORES_PER_CG = 65


@dataclass(frozen=True)
class ScalingParameters:
    """Calibrated per-CG cost inputs of the scaling model."""

    #: Seconds of CG compute per executed KMC event.
    compute_seconds_per_event: float
    #: KMC events per atom per second of simulated time (workload density).
    events_per_atom_second: float
    #: Ghost bytes exchanged per boundary cell per cycle.
    bytes_per_boundary_cell: float
    #: Point-to-point network bandwidth per CG (B/s).
    network_bandwidth: float = 8.0e9
    #: Point-to-point message latency (s).
    message_latency: float = 2.0e-6
    #: Per-hop latency of the synchronisation allreduce (s).
    allreduce_latency: float = 4.0e-6
    #: Neighbour messages per cycle (26-neighbour halo).
    messages_per_cycle: int = 26
    #: Synchronisation interval (s of simulated time).
    t_stop: float = 2.0e-8
    #: Poisson load-imbalance coefficient: the slowest CG of a cycle runs
    #: ``1 + c / sqrt(events_per_cg)`` times the mean compute (fewer events
    #: per cycle -> larger relative fluctuation -> the strong-scaling tail).
    imbalance_coeff: float = 0.5


@dataclass(frozen=True)
class ScalingPoint:
    """One bar of Fig. 12/13."""

    n_cgs: int
    n_cores: int
    atoms_total: float
    atoms_per_cg: float
    cycle_compute: float
    cycle_comm: float
    cycle_sync: float

    @property
    def cycle_time(self) -> float:
        return self.cycle_compute + self.cycle_comm + self.cycle_sync


def _cycle_terms(
    params: ScalingParameters, atoms_per_cg: float, n_cgs: int
) -> ScalingPoint:
    # Events executed by one CG during one t_stop cycle (one active sector).
    events = (
        atoms_per_cg * params.events_per_atom_second * params.t_stop / 8.0
    )
    imbalance = 1.0 + params.imbalance_coeff / np.sqrt(max(events, 1e-9))
    compute = events * params.compute_seconds_per_event * imbalance
    # Boundary area of a cubic subdomain: 6 * L^2 cells with L = cbrt(cells).
    cells = atoms_per_cg / 2.0
    boundary_cells = 6.0 * cells ** (2.0 / 3.0)
    comm_bytes = boundary_cells * params.bytes_per_boundary_cell
    comm = (
        params.messages_per_cycle * params.message_latency
        + comm_bytes / params.network_bandwidth
    )
    sync = params.allreduce_latency * np.log2(max(n_cgs, 2))
    return ScalingPoint(
        n_cgs=n_cgs,
        n_cores=n_cgs * CORES_PER_CG,
        atoms_total=atoms_per_cg * n_cgs,
        atoms_per_cg=atoms_per_cg,
        cycle_compute=compute,
        cycle_comm=comm,
        cycle_sync=sync,
    )


def strong_scaling(
    params: ScalingParameters,
    atoms_total: float,
    cg_counts: List[int],
) -> List[ScalingPoint]:
    """Fixed total system over increasing CG counts (Fig. 12)."""
    return [_cycle_terms(params, atoms_total / n, n) for n in cg_counts]


def weak_scaling(
    params: ScalingParameters,
    atoms_per_cg: float,
    cg_counts: List[int],
) -> List[ScalingPoint]:
    """Fixed per-CG system over increasing CG counts (Fig. 13)."""
    return [_cycle_terms(params, atoms_per_cg, n) for n in cg_counts]


def parallel_efficiency(points: List[ScalingPoint], weak: bool = False) -> List[float]:
    """Efficiency relative to the first point.

    Weak scaling: ideal cycle time is flat, so efficiency is ``t0 / t_P``.
    Strong scaling: the work per cycle already shrinks with P (each CG holds
    1/P of the atoms), so the ideal cycle time is ``t0 * P0 / P`` and the
    efficiency is ``(t0 * P0 / P) / t_P``.
    """
    t0 = points[0].cycle_time
    p0 = points[0].n_cgs
    if weak:
        return [t0 / p.cycle_time for p in points]
    return [(t0 * p0 / p.n_cgs) / p.cycle_time for p in points]
