"""Vacancy/solute diffusion analysis — mean squared displacement and D.

A physical validation of the whole KMC stack: for a single vacancy in pure
bcc Fe every hop moves it one 1NN distance ``lambda = sqrt(3)/2 a`` at total
rate ``8 * Gamma``, so its tracer diffusion coefficient is analytic,

.. math::
    D = \\frac{\\langle \\lambda^2 \\rangle \\, \\Gamma_{tot}}{6}
      = \\frac{(\\sqrt{3} a / 2)^2 \\cdot 8 \\Gamma}{6},

and the measured MSD slope must reproduce it.  The tracker unwraps periodic
images by accumulating per-hop minimum-image displacements, so boxes far
smaller than the walk length still measure correctly.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..constants import ATTEMPT_FREQUENCY, KB_EV
from ..core.engine import KMCEvent, SerialAKMCBase

__all__ = ["DisplacementTracker", "analytic_vacancy_diffusivity", "measure_vacancy_diffusivity"]


class DisplacementTracker:
    """Accumulates unwrapped displacements of every tracked vacancy slot.

    Attach as the engine callback.  ``positions[slot]`` is the unwrapped
    Cartesian displacement (Angstrom) of the vacancy in that registry slot
    since tracking began; samples of (time, MSD) are recorded per event.
    """

    def __init__(self, engine: SerialAKMCBase) -> None:
        self.engine = engine
        n = engine.cache.n_slots
        self.displacements = np.zeros((n, 3), dtype=np.float64)
        self.times: List[float] = [engine.time]
        self.msd: List[float] = [0.0]
        self.hops = 0

    def __call__(self, event: KMCEvent) -> None:
        delta = self.engine.lattice.minimum_image_displacement(
            event.from_site, event.to_site
        )
        self.displacements[event.slot] += delta
        self.hops += 1
        self.times.append(event.time)
        self.msd.append(float(np.mean(np.sum(self.displacements**2, axis=1))))

    def diffusivity(self) -> float:
        """Tracer diffusivity D in Angstrom^2 / s.

        The unbiased endpoint estimator ``<|R(t_end)|^2> / (6 t_end)``; a
        single trajectory's squared displacement has O(1) relative variance,
        so average several walkers (multiple slots and/or seeds).
        """
        times = self.times
        if len(times) < 2 or times[-1] == times[0]:
            raise ValueError("not enough trajectory to estimate a diffusivity")
        return float(self.msd[-1] / (6.0 * (times[-1] - times[0])))


def analytic_vacancy_diffusivity(
    temperature: float,
    a: float,
    ea0: float,
    attempt_frequency: float = ATTEMPT_FREQUENCY,
) -> float:
    """Exact D (A^2/s) of a lone vacancy on a bcc lattice of one species."""
    gamma = attempt_frequency * np.exp(-ea0 / (KB_EV * temperature))
    hop_sq = 3.0 * a * a / 4.0  # (sqrt(3) a / 2)^2
    return hop_sq * 8.0 * gamma / 6.0


def measure_vacancy_diffusivity(
    engine: SerialAKMCBase,
    n_steps: int,
) -> Dict[str, float]:
    """Run an engine while tracking MSD; returns measured stats.

    The engine must already hold the vacancies to track.  Returns a dict with
    ``D`` (A^2/s), ``hops``, and ``time`` (s).
    """
    tracker = DisplacementTracker(engine)
    engine.run(n_steps=n_steps, callback=tracker)
    return {
        "D": tracker.diffusivity(),
        "hops": float(tracker.hops),
        "time": engine.time,
    }
