"""Pre-computed descriptor tables — paper Eq. 6.

On a rigid lattice the exponential descriptor of Oganov et al. (Eq. 5)

    f(r | p, q) = sum_j exp(-(r / p) ** q)

only ever sees the handful of discrete shell distances, so the per-neighbour
term can be tabulated as ``TABLE[shell, (p, q)]`` once and features become
pure count-weighted table sums.  This module builds the (p, q) grid of the
paper (32 sets, Sec. 4.1.1) and the TABLE.
"""

from __future__ import annotations

import numpy as np

from ..constants import (
    DESCRIPTOR_N_SETS,
    DESCRIPTOR_P_START,
    DESCRIPTOR_P_STEP,
    DESCRIPTOR_Q_START,
    DESCRIPTOR_Q_STEP,
)

__all__ = ["make_pq_grid", "FeatureTable"]


def make_pq_grid(n_sets: int = DESCRIPTOR_N_SETS) -> np.ndarray:
    """The paper's (p, q) hyper-parameter grid as an ``(n_sets, 2)`` array.

    p runs 4.2, 4.1, ... downward in steps of 0.1 and q runs 1.85, 1.90, ...
    upward in steps of 0.05 (Sec. 4.1.1; 32 pairs by default).
    """
    idx = np.arange(n_sets, dtype=np.float64)
    p = DESCRIPTOR_P_START + DESCRIPTOR_P_STEP * idx
    q = DESCRIPTOR_Q_START + DESCRIPTOR_Q_STEP * idx
    if np.any(p <= 0):
        raise ValueError(f"n_sets={n_sets} drives p non-positive")
    return np.stack([p, q], axis=-1)


class FeatureTable:
    """TABLE(r, p, q) evaluated at the lattice shell distances (Eq. 6).

    Parameters
    ----------
    shell_distances:
        ``(n_shells,)`` shell distances in Angstrom.
    pq:
        ``(n_dim, 2)`` descriptor hyper-parameters; defaults to the paper grid.
    dtype:
        Working precision of the table (float32 on Sunway).
    """

    def __init__(
        self,
        shell_distances: np.ndarray,
        pq: np.ndarray | None = None,
        dtype: np.dtype = np.float32,
    ) -> None:
        self.shell_distances = np.asarray(shell_distances, dtype=np.float64)
        self.pq = make_pq_grid() if pq is None else np.asarray(pq, dtype=np.float64)
        if self.pq.ndim != 2 or self.pq.shape[1] != 2:
            raise ValueError(f"pq must be (n_dim, 2), got {self.pq.shape}")
        r = self.shell_distances[:, None]
        p = self.pq[None, :, 0]
        q = self.pq[None, :, 1]
        self.table = np.exp(-((r / p) ** q)).astype(dtype)

    @property
    def n_shells(self) -> int:
        return int(self.table.shape[0])

    @property
    def n_dim(self) -> int:
        """Number of (p, q) descriptor dimensions."""
        return int(self.table.shape[1])

    def features_from_counts(self, counts: np.ndarray) -> np.ndarray:
        """Per-site feature vectors from shell-type counts.

        Parameters
        ----------
        counts: ``(..., n_shells, n_elements)``.

        Returns
        -------
        ``(..., n_elements * n_dim)`` features laid out element-major:
        ``f[..., e * n_dim + d] = sum_s counts[..., s, e] * TABLE[s, d]``.
        """
        counts = np.asarray(counts, dtype=self.table.dtype)
        feats = np.einsum("...se,sd->...ed", counts, self.table)
        return feats.reshape(*counts.shape[:-2], -1)

    def continuous_term(self, r: np.ndarray) -> np.ndarray:
        """Eq. 5 per-neighbour term for arbitrary distances: ``(..., n_dim)``.

        Used off-lattice (training data) where distances are continuous.
        """
        r = np.asarray(r, dtype=np.float64)[..., None]
        p = self.pq[:, 0]
        q = self.pq[:, 1]
        return np.exp(-((r / p) ** q))

    def continuous_term_deriv(self, r: np.ndarray) -> np.ndarray:
        """d/dr of :meth:`continuous_term`: ``(..., n_dim)``."""
        r = np.asarray(r, dtype=np.float64)[..., None]
        p = self.pq[:, 0]
        q = self.pq[:, 1]
        x = r / p
        return np.exp(-(x**q)) * (-(q / p) * x ** (q - 1.0))
