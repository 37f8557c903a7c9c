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
    #: then evaluate cache misses one vacancy system at a time.
    batch_row_invariant: bool = True

    #: Monotonic parameter-identity epoch.  Implementations whose energy
    #: function can change after construction (weight updates, a new
    #: standardisation) bump this on every change; persistent caches keyed
    #: on the potential (:class:`~repro.core.rowcache.RowEnergyCache`)
    #: compare it to detect that cached energies have gone stale.  Frozen
    #: potentials (the EAM tables) may leave the class default.
    params_epoch: int = 0

    #: Array backend the potential's buffers live on, or ``None`` meaning
    #: NumPy-resident (the default for tabulated/EAM potentials, whose
    #: reductions run host-side).  Evaluators consult this to convert
    #: arguments at the call boundary; see :meth:`set_backend`.
    array_backend = None

    def set_backend(self, backend) -> bool:
        """Ask the potential to move its buffers onto ``backend``.

        The base implementation only accepts the NumPy backend (recording
        it is a no-op) and reports ``False`` for anything else, leaving the
        potential NumPy-resident — evaluators then convert at the call
        boundary.  Potentials whose math is pure array code (the NNP)
        override this to install backend-resident buffers and return
        ``True``.
        """
        if backend is not None and getattr(backend, "is_numpy", False):
            self.array_backend = backend
            return True
        return False

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
    xp=None,
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
    xp:
        Array backend to compute on (default: the NumPy reference).  Under
        the NumPy backend every call below is the identical NumPy call, so
        the result is bit-exact with the pre-backend implementation.

    Returns
    -------
    ``(..., n_shells, n_elements)`` float32 counts tensor on ``xp``.
    """
    if xp is None:
        # Imported lazily: repro.core imports this module at package-init
        # time, so a top-level backend import would be circular.
        from ..core.backend import get_backend

        xp = get_backend("numpy")
    neighbor_types = xp.asarray(neighbor_types)
    lead_shape = tuple(neighbor_types.shape[:-1])
    n_local = int(neighbor_types.shape[-1])
    flat_types = neighbor_types.reshape(-1, n_local)
    n_rows = int(flat_types.shape[0])

    # One sgemm per element code: (types == e) @ shell_onehot sums the
    # matching neighbours per shell.  Every partial sum is an integer
    # <= n_local, exactly representable in float32, so the result is exact
    # (and independent of BLAS blocking / row count) — vacancies and any
    # out-of-range code simply never compare equal.
    shell_idx = xp.astype(xp.asarray(neighbor_shell), xp.int64)
    shell_onehot = xp.zeros((n_local, n_shells), dtype=xp.float32)
    shell_onehot[xp.arange(n_local), shell_idx] = 1.0
    counts = xp.empty((n_rows, n_shells, n_elements), dtype=xp.float32)
    for e in range(n_elements):
        counts[:, :, e] = xp.matmul(
            xp.astype(flat_types == e, xp.float32), shell_onehot
        )
    return counts.reshape(*lead_shape, n_shells, n_elements)
