"""Transition rates and the residence-time algorithm (paper Eqs. 1-3)."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..constants import ATTEMPT_FREQUENCY, CU, EA0_CU, EA0_FE, FE, KB_EV
from .vacancy_system import StateEnergies, StateEnergiesBatch

__all__ = ["RateModel", "residence_time", "DEFAULT_EA0"]

#: Paper reference activation energies per species code (eV): Fe, Cu.
DEFAULT_EA0 = (EA0_FE, EA0_CU)


class RateModel:
    """Arrhenius hop rates with the paper's migration-energy model.

    .. math::
        E_a = E_a^0(\\text{species}) + \\tfrac12 (E_f - E_i), \\qquad
        \\Gamma = \\Gamma_0 \\exp(-E_a / k_B T)

    Parameters
    ----------
    temperature:
        Absolute temperature in Kelvin.
    attempt_frequency:
        :math:`\\Gamma_0` in 1/s.
    ea0:
        Reference activation energy per migrating species code (eV); the
        paper's Fe/Cu values by default.  Provide a longer sequence for
        multicomponent systems (e.g. ``(0.65, 0.56, 0.68)`` for Fe-Cu-Ni).
    """

    def __init__(
        self,
        temperature: float,
        attempt_frequency: float = ATTEMPT_FREQUENCY,
        ea0: Optional[Sequence[float]] = None,
    ) -> None:
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature!r}")
        self.temperature = float(temperature)
        self.attempt_frequency = float(attempt_frequency)
        self._beta = 1.0 / (KB_EV * self.temperature)
        values = DEFAULT_EA0 if ea0 is None else tuple(float(v) for v in ea0)
        # One slot per species code plus the vacancy code (never indexed for
        # valid hops, but keeps fancy indexing safe).
        self._ea0 = np.concatenate([np.asarray(values), [np.inf]])
        self._params = (
            self.temperature, self.attempt_frequency, self._ea0.tobytes()
        )
        self._hash = hash(self._params)

    def __eq__(self, other) -> bool:
        """Equal parameters give equal rates, bit for bit: a refresh rates
        the slots of equal models in one :meth:`rates_batch`."""
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._params == other._params

    def __hash__(self) -> int:
        return self._hash

    def migration_energies(self, energies: StateEnergies) -> np.ndarray:
        """Per-direction activation energies E_a (eV); invalid hops -> inf."""
        ea0 = self._ea0[
            np.minimum(energies.migrating_species, len(self._ea0) - 1)
        ]
        ea = ea0 + 0.5 * energies.delta
        return np.where(energies.valid, ea, np.inf)

    def rates(self, energies: StateEnergies) -> np.ndarray:
        """Per-direction hop rates Gamma^X in 1/s (Eq. 1); invalid hops -> 0."""
        ea = self.migration_energies(energies)
        with np.errstate(over="ignore"):
            gamma = self.attempt_frequency * np.exp(-ea * self._beta)
        return np.where(energies.valid, gamma, 0.0)

    def migration_energies_batch(self, batch: StateEnergiesBatch) -> np.ndarray:
        """``(B, 8)`` activation energies for a whole vacancy batch."""
        ea0 = self._ea0[
            np.minimum(batch.migrating_species, len(self._ea0) - 1)
        ]
        return np.where(batch.valid, ea0 + 0.5 * batch.delta, np.inf)

    def rates_batch(self, batch: StateEnergiesBatch) -> np.ndarray:
        """``(B, 8)`` hop rates for a whole vacancy batch in one pass.

        Every operation is elementwise, so ``rates_batch(b)[i]`` is
        bit-identical to ``rates(b.row(i))`` — the batched miss path changes
        throughput, never trajectories.
        """
        ea = self.migration_energies_batch(batch)
        with np.errstate(over="ignore"):
            gamma = self.attempt_frequency * np.exp(-ea * self._beta)
        return np.where(batch.valid, gamma, 0.0)


def residence_time(total_rate: float, u: float) -> float:
    """Residence-time increment (Eq. 3): ``-ln(u) / total_rate``.

    This is the single place that states the draw-order contract shared by
    every driver (serial engines and parallel ranks alike): each event first
    draws the *selection* variate (``rng.random() * total``, consumed by the
    two-level kernel selection) and only then the *time* variate, passed here
    as ``u = 1.0 - rng.random()`` so that ``u`` lies in (0, 1].  Fixing the
    order — selection then time — is what makes fixed-seed trajectories
    bit-identical across engine variants.

    Parameters
    ----------
    total_rate:
        Sum of all event rates in 1/s (must be positive).
    u:
        Uniform random number in (0, 1].
    """
    if total_rate <= 0.0:
        raise ValueError("total rate must be positive to advance time")
    if not 0.0 < u <= 1.0:
        raise ValueError(f"u must be in (0, 1], got {u!r}")
    return -np.log(u) / total_rate
