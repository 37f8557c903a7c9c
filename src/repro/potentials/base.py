"""Potential interfaces shared by the AKMC engines and the NNP stack.

On a rigid BCC lattice every interatomic distance is one of a handful of
neighbour-shell distances, so any local potential can be evaluated from the
*shell-type counts* tensor ``counts[site, shell, element]`` — the number of
neighbours of each element in each shell around a site.  Both the EAM baseline
and the neural-network potential implement :class:`CountsPotential`; this is
the abstraction the triple-encoding tabulation feeds (paper Eq. 6).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..constants import N_ELEMENTS

__all__ = ["CountsPotential", "counts_from_types"]


class CountsPotential(ABC):
    """A potential evaluable from shell-type counts on a rigid lattice.

    Implementations are constructed for a fixed set of neighbour shells
    (``shell_distances``) so that radial functions can be pre-tabulated.

    Species convention: element codes are ``0 .. n_elements - 1`` and the
    vacancy code is exactly ``n_elements`` (2 for the default Fe-Cu binary,
    3 for a ternary, ...).
    """

    #: Distances (Angstrom) of the neighbour shells this potential was
    #: tabulated for; ``counts`` tensors must use the same shell ordering.
    shell_distances: np.ndarray

    #: Number of chemical elements (override for multicomponent systems).
    n_elements: int = N_ELEMENTS

    #: Whether :meth:`energies_from_counts` is *row-invariant*: row ``i`` of
    #: the result is bit-identical no matter which other rows share the call.
    #: Exact counts-tabulated potentials qualify (each row is an independent
    #: einsum/table reduction), and since the NNP routed its inference
    #: through the deterministic tiled-GEMM kernel
    #: (:mod:`repro.operators.tilegemm` — fixed call shapes, fixed
    #: accumulation order) it qualifies too, so the engines may fuse cache
    #: misses into one batched evaluation without perturbing fixed-seed
    #: trajectories.  Implementations whose per-row result depends on the
    #: batch shape (e.g. raw float32 GEMM through BLAS, whose blocking
    #: changes with the row count) must set this to ``False``; the engines
    #: then refuse them: building one raises :class:`ValueError`
    #: (``DeltaRebuilder``), since dedup, the row cache and the delta
    #: rebuild all rest on this contract.
    batch_row_invariant: bool = True

    #: Monotonic parameter-identity epoch.  Implementations whose energy
    #: function can change after construction (weight updates, a new
    #: standardisation) bump this on every change; persistent caches keyed
    #: on the potential (:class:`~repro.core.rowcache.RowEnergyCache`)
    #: compare it to detect that cached energies have gone stale.  Frozen
    #: potentials (the EAM tables) may leave the class default.
    params_epoch: int = 0

    @property
    def vacancy_code(self) -> int:
        """The species code marking vacant sites (``n_elements``)."""
        return self.n_elements

    @property
    def n_shells(self) -> int:
        return int(self.shell_distances.shape[0])

    @abstractmethod
    def energies_from_counts(
        self, center_types: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Per-atom energies (eV) for sites described by shell-type counts.

        Parameters
        ----------
        center_types:
            ``(n,)`` species codes of the centre sites.  Vacant sites must
            yield exactly 0.0 energy.
        counts:
            ``(n, n_shells, n_elements)`` neighbour counts (vacancy
            neighbours are *not* counted — they contribute nothing).
        """

    def region_energy(self, center_types: np.ndarray, counts: np.ndarray) -> float:
        """Total energy (eV) of a set of sites — sum of per-atom energies."""
        return float(np.sum(self.energies_from_counts(center_types, counts)))


def counts_from_types(
    neighbor_types: np.ndarray,
    neighbor_shell: np.ndarray,
    n_shells: int,
    n_elements: int = N_ELEMENTS,
) -> np.ndarray:
    """Build the shell-type counts tensor from per-site neighbour types.

    Parameters
    ----------
    neighbor_types:
        ``(..., n_local)`` species codes of each site's neighbours
        (vacancy entries — any code >= ``n_elements`` — are skipped).
    neighbor_shell:
        ``(n_local,)`` shell index of each neighbour slot (shared by all
        sites: shell only depends on the relative offset, see NET).
    n_shells, n_elements:
        Output tensor dimensions.

    Returns
    -------
    ``(..., n_shells, n_elements)`` float32 counts tensor.
    """
    neighbor_types = np.asarray(neighbor_types)
    lead_shape = tuple(neighbor_types.shape[:-1])
    n_local = int(neighbor_types.shape[-1])
    flat_types = neighbor_types.reshape(-1, n_local)
    n_rows = int(flat_types.shape[0])

    # One sgemm per element code: (types == e) @ shell_onehot sums the
    # matching neighbours per shell.  Every partial sum is an integer
    # <= n_local, exactly representable in float32, so the result is exact
    # (and independent of BLAS blocking / row count) — vacancies and any
    # out-of-range code simply never compare equal.
    shell_idx = np.asarray(neighbor_shell).astype(np.int64)
    shell_onehot = np.zeros((n_local, n_shells), dtype=np.float32)
    shell_onehot[np.arange(n_local), shell_idx] = 1.0
    counts = np.empty((n_rows, n_shells, n_elements), dtype=np.float32)
    for e in range(n_elements):
        counts[:, :, e] = np.matmul(
            (flat_types == e).astype(np.float32), shell_onehot
        )
    return counts.reshape(*lead_shape, n_shells, n_elements)
