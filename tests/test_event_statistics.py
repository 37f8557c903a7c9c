"""The sampled events follow the master equation's residence-time law.

One fixed-seed serial engine runs ``N`` events.  Before each, the test
reads the kernel's refreshed rates: the total ``Γ_tot`` and, per hop
direction ``d``, ``Γ_d = Σ_slots rates[slot, d]``.  The residence-time
algorithm (paper Eqs. 1-3) then says two things about every event:

* its time step times ``Γ_tot`` is an Exp(1) variate, independent of the
  rest of the history;
* it hops in direction ``d`` with probability ``Γ_d / Γ_tot``.

Both are checked over the whole run with the textbook tests, at a level
``ALPHA`` that a correct engine fails once in a million fixed seeds.
"""

import numpy as np
import pytest
from scipy import stats

from repro.core.engine import TensorKMCEngine
from repro.lattice import LatticeState

#: Events sampled, and the level of both tests.
N_EVENTS = 2000
ALPHA = 1e-6


@pytest.fixture(scope="module")
def sampled(tet_small, eam_small):
    """``(dt·Γ_tot, chosen directions, Σ_events Γ_d/Γ_tot)`` of one run.

    A concentrated alloy (30 % Cu) at 600 K makes the direction
    probabilities differ from event to event and from direction to
    direction (their sums run from about 150 to 390), so a direction
    mapping shifted by one reads a χ² near 160."""
    lattice = LatticeState((6, 6, 6))
    lattice.randomize_alloy(
        np.random.default_rng(11), cu_fraction=0.3, vacancy_fraction=0.02
    )
    engine = TensorKMCEngine(
        lattice, eam_small, tet_small, temperature=600.0,
        rng=np.random.default_rng(12),
    )
    cache = engine.kernel.cache
    scaled = np.empty(N_EVENTS)
    chosen = np.empty(N_EVENTS, dtype=np.int64)
    expected = np.zeros(tet_small.N_DIRECTIONS)
    for n in range(N_EVENTS):
        engine.kernel.refresh()
        total = engine.kernel.total
        held = cache.live & cache.fresh
        expected += cache.rates[held].sum(axis=0) / total
        event = engine.step()
        assert event.total_rate == total
        scaled[n] = event.dt * total
        chosen[n] = event.direction
    return scaled, chosen, expected


def test_residence_times_are_exp1(sampled):
    """Kolmogorov-Smirnov of ``dt·Γ_tot`` against Exp(1).

    Tolerance from N: by the Dvoretzky-Kiefer-Wolfowitz inequality the
    empirical CDF of N i.i.d. draws strays from the true one by more than
    ``ε`` with probability at most ``2·exp(-2·N·ε²)``; setting that to
    ``ALPHA`` gives ``ε = sqrt(ln(2/ALPHA) / (2·N))`` (0.060 at N = 2000).
    """
    scaled, _, _ = sampled
    eps = np.sqrt(np.log(2.0 / ALPHA) / (2.0 * N_EVENTS))
    result = stats.kstest(scaled, "expon")
    assert result.statistic < eps, (result.statistic, eps)
    # The mean of N Exp(1) draws has standard error 1/sqrt(N).
    assert abs(scaled.mean() - 1.0) < 5.0 / np.sqrt(N_EVENTS)


def test_hop_directions_follow_the_rates(sampled):
    """Pearson χ² of the chosen directions against ``Σ_events Γ_d/Γ_tot``.

    Tolerance from N: event ``e`` is one categorical draw with
    probabilities ``p_e``, so the counts ``O_d`` have means
    ``E_d = Σ_e p_e,d`` and covariance ``Σ_e (diag p_e − p_e p_eᵀ)``,
    which is at most the covariance of N i.i.d. draws from the mean
    probabilities ``E/N`` (``Σ_e p_e p_eᵀ ≥ E Eᵀ/N``).  The Pearson
    statistic is therefore asymptotically dominated by χ² with 8 − 1 = 7
    degrees of freedom, and its ``1 − ALPHA`` quantile (about 40.5) is the
    bound.  The approximation needs every ``E_d`` well above 5: here each
    is at least 140.
    """
    _, chosen, expected = sampled
    assert expected.sum() == pytest.approx(N_EVENTS)
    assert expected.min() > 5.0 * 10
    observed = np.bincount(chosen, minlength=expected.size)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    bound = stats.chi2.ppf(1.0 - ALPHA, df=expected.size - 1)
    assert chi2 < bound, (chi2, bound, observed, expected)
