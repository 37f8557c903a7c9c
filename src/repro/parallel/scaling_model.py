"""Strong / weak scaling model (paper Figs. 12-13).

We cannot run 27 million cores, so the scalability curves come from an
analytic model of the synchronous sublattice protocol.  Per cycle a CG
costs::

    T_cycle = E[max_P K] * t_event                          (compute)
            + n_msgs * latency + bytes / bandwidth          (ghost exchange)
            + log2(P) * allreduce_latency                   (synchronisation)

Every CG waits for the slowest CG of its sector (Sec. 2.2), so the compute
term is the expected maximum over the P CGs of one CG's event count K per
cycle.  K is compound Poisson: the active sector holds n ~ Poisson(v)
vacancies, and given n, K ~ Poisson(n * mu), where ``v`` is the mean
vacancy count of a sector and ``mu = Gamma_vac * t_stop`` the mean events of
one vacancy in one cycle (:func:`expected_max_events`).  The tail this
gives grows with P, and nothing in the model is fitted to the paper's
curve.  The inputs:

* ``compute_seconds_per_event`` — one vacancy-system evaluation on a CG,
  the Fig. 11 SW(opt) ledger;
* ``bytes_per_boundary_cell`` — ghost traffic per boundary cell, counted by
  SimComm on a real multi-rank run;
* the paper's workload in :mod:`repro.constants`: the vacancy concentration,
  the pure-Fe hop rate at 573 K and ``T_STOP``;
* the network constants of :mod:`repro.sunway.spec`.

Strong scaling divides a fixed system over more CGs (events per CG shrink
while the maximum over more CGs grows -> efficiency falls); weak scaling
fixes the per-CG system (only the maximum and the log-depth
synchronisation grow).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..constants import (
    ATTEMPT_FREQUENCY,
    EA0_FE,
    KB_EV,
    T_STOP,
    TEMPERATURE_RPV,
    VACANCY_CONCENTRATION,
)
from ..sunway.spec import (
    ALLREDUCE_LATENCY,
    CORES_PER_CG,
    MESSAGE_LATENCY,
    MESSAGES_PER_CYCLE,
    NETWORK_BANDWIDTH,
)
from .sublattice import N_SECTORS

__all__ = [
    "ScalingParameters",
    "ScalingPoint",
    "expected_max_events",
    "strong_scaling",
    "weak_scaling",
    "parallel_efficiency",
]


@dataclass(frozen=True)
class ScalingParameters:
    """Per-CG cost inputs of the scaling model."""

    #: Seconds of CG compute per executed KMC event.
    compute_seconds_per_event: float
    #: Ghost bytes exchanged per boundary cell per cycle.
    bytes_per_boundary_cell: float


def _log_factorials(n: int) -> np.ndarray:
    """``log(m!)`` for ``m = 0 .. n``."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1.0, n + 1.0)))))


def _poisson_window(mean: float) -> Tuple[int, int]:
    """Integer range outside which a Poisson(mean) variable has mass < 1e-20."""
    width = 10.0 * math.sqrt(mean) + 40.0
    return max(0, int(mean - width)), int(math.ceil(mean + width))


def expected_max_events(v: float, mu: float, n_cgs: int) -> float:
    """Expected maximum over ``n_cgs`` CGs of one CG's events per cycle.

    One CG's count K is Neyman type A: n ~ Poisson(v) vacancies in the
    active sector, each running Poisson(mu) events.  With independent CGs,
    ``E[max] = sum_{k>=1} (1 - (1 - P(K >= k)) ** n_cgs)``, evaluated in the
    survival form so a tail of 1e-12 still counts at a million CGs.  Every
    Poisson is truncated where its mass falls below 1e-20; below the
    window's first count every CG reaches k, which contributes 1 each.
    """
    if v <= 0.0 or mu <= 0.0:
        return 0.0
    n_lo, n_hi = _poisson_window(v)
    k_lo = _poisson_window(n_lo * mu)[0]
    k_hi = _poisson_window(n_hi * mu)[1]
    log_fact = _log_factorials(max(n_hi, k_hi))
    pmf = np.zeros(k_hi - k_lo + 1)
    if n_lo == 0:  # an empty sector runs no event (and then k_lo == 0)
        pmf[0] = math.exp(-v)
    for n in range(max(n_lo, 1), n_hi + 1):
        lam = n * mu
        lo, hi = _poisson_window(lam)
        k = np.arange(max(lo, k_lo), min(hi, k_hi) + 1)
        log_w = n * math.log(v) - v - log_fact[n]
        pmf[k - k_lo] += np.exp(log_w + k * math.log(lam) - lam - log_fact[k])
    sf = np.minimum(np.cumsum(pmf[::-1])[::-1], 1.0)  # P(K >= k)
    with np.errstate(divide="ignore"):  # sf == 1: every CG reaches k
        return float(k_lo - np.expm1(n_cgs * np.log1p(-sf[1:])).sum())


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
    # One sector of the CG's subdomain is active per cycle; its vacancies
    # hop at the pure-Fe rate (eight directions at EA0_FE) until T_STOP.
    v = atoms_per_cg * VACANCY_CONCENTRATION / N_SECTORS
    gamma = 8 * ATTEMPT_FREQUENCY * math.exp(-EA0_FE / (KB_EV * TEMPERATURE_RPV))
    mu = gamma * T_STOP
    compute = expected_max_events(v, mu, n_cgs) * params.compute_seconds_per_event
    # Boundary area of a cubic subdomain: 6 * L^2 cells with L = cbrt(cells).
    cells = atoms_per_cg / 2.0
    boundary_cells = 6.0 * cells ** (2.0 / 3.0)
    comm_bytes = boundary_cells * params.bytes_per_boundary_cell
    comm = MESSAGES_PER_CYCLE * MESSAGE_LATENCY + comm_bytes / NETWORK_BANDWIDTH
    sync = ALLREDUCE_LATENCY * np.log2(max(n_cgs, 2))
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
