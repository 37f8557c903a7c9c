"""Site indexing schemes for a padded (local + ghost) domain window.

OpenKMC resolves a site's storage index via a dense ``POS_ID`` lookup array
covering the whole padded window, which wastes memory and bandwidth (paper
Fig. 5).  TensorKMC replaces it with *direct computation* (paper Eq. 4): sites
are stored with all local sites first and all ghost sites after, and the index
of a site at traversal position ``t`` is derived from the number of ghost
sites preceding ``t``::

    index = N + nghost(x, y, z)        if (x, y, z) is a ghost site
    index = ID(x, y, z) - nghost(...)  otherwise

where ``ID`` is the row-major traversal id over the padded window and ``N`` is
the number of local sites.  Both schemes are implemented here with identical
semantics so they can be validated against each other and compared for memory
cost (Table 1) and speed (ablation bench).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["PaddedWindow", "DirectIndexer", "PosIdIndexer"]


@dataclass(frozen=True)
class PaddedWindow:
    """Geometry of a rank's padded domain window.

    The window covers ``(2, px, py, pz)`` BCC sites in padded cell coordinates
    where ``px = nx + 2 * ghost`` etc.; the *local* (inner) cells occupy the
    box ``[ghost, ghost + n)`` along each axis.
    """

    local_shape: Tuple[int, int, int]
    ghost: int

    def __post_init__(self) -> None:
        if self.ghost < 0:
            raise ValueError(f"ghost width must be >= 0, got {self.ghost!r}")
        if min(self.local_shape) < 1:
            raise ValueError(f"local shape must be positive, got {self.local_shape!r}")

    @property
    def padded_shape(self) -> Tuple[int, int, int]:
        g2 = 2 * self.ghost
        nx, ny, nz = self.local_shape
        return (nx + g2, ny + g2, nz + g2)

    @property
    def n_local_sites(self) -> int:
        nx, ny, nz = self.local_shape
        return 2 * nx * ny * nz

    def is_local(self, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Whether padded cell coordinates fall in the local (inner) box."""
        g = self.ghost
        nx, ny, nz = self.local_shape
        return (
            (i >= g) & (i < g + nx)
            & (j >= g) & (j < g + ny)
            & (k >= g) & (k < g + nz)
        )

    def traversal_id(self, s: np.ndarray, i: np.ndarray, j: np.ndarray, k: np.ndarray) -> np.ndarray:
        """Row-major traversal id over the padded window (``ID(x, y, z)``)."""
        px, py, pz = self.padded_shape
        return ((np.asarray(s, dtype=np.int64) * px + i) * py + j) * pz + k


class DirectIndexer:
    """Eq. 4 direct index computation — no lookup array at all.

    The only state kept is the window geometry; ``nghost`` is evaluated in
    closed form by counting inner sites inside a row-major prefix of the
    padded box.
    """

    def __init__(self, window: PaddedWindow) -> None:
        self.window = window

    @property
    def memory_bytes(self) -> int:
        """Auxiliary lookup memory: zero, the defining advantage of Eq. 4."""
        return 0

    def _inner_before(
        self, s: np.ndarray, i: np.ndarray, j: np.ndarray, k: np.ndarray
    ) -> np.ndarray:
        """Number of *local* sites with traversal id strictly before (s,i,j,k)."""
        w = self.window
        g = w.ghost
        nx, ny, nz = w.local_shape
        s = np.asarray(s, dtype=np.int64)
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        k = np.asarray(k, dtype=np.int64)
        per_sub = nx * ny * nz
        count = s * per_sub
        full_i = np.clip(i - g, 0, nx)
        count = count + full_i * (ny * nz)
        i_inner = (i >= g) & (i < g + nx)
        full_j = np.where(i_inner, np.clip(j - g, 0, ny), 0)
        count = count + full_j * nz
        j_inner = i_inner & (j >= g) & (j < g + ny)
        full_k = np.where(j_inner, np.clip(k - g, 0, nz), 0)
        return count + full_k

    def index_of(
        self, s: np.ndarray, i: np.ndarray, j: np.ndarray, k: np.ndarray
    ) -> np.ndarray:
        """Storage indices (local-first layout) for padded coordinates."""
        w = self.window
        s = np.asarray(s, dtype=np.int64)
        i = np.asarray(i, dtype=np.int64)
        j = np.asarray(j, dtype=np.int64)
        k = np.asarray(k, dtype=np.int64)
        t = w.traversal_id(s, i, j, k)
        inner_before = self._inner_before(s, i, j, k)
        nghost = t - inner_before
        local = w.is_local(i, j, k)
        return np.where(local, inner_before, w.n_local_sites + nghost)


class PosIdIndexer:
    """OpenKMC-style dense ``POS_ID`` lookup array over the padded window.

    Functionally identical to :class:`DirectIndexer`, but materialises the
    whole mapping in memory — this is the array whose cost Table 1 reports.
    """

    def __init__(self, window: PaddedWindow) -> None:
        self.window = window
        px, py, pz = window.padded_shape
        s, i, j, k = np.meshgrid(
            np.arange(2, dtype=np.int64),
            np.arange(px, dtype=np.int64),
            np.arange(py, dtype=np.int64),
            np.arange(pz, dtype=np.int64),
            indexing="ij",
        )
        direct = DirectIndexer(window)
        self.pos_id = direct.index_of(s, i, j, k).reshape(2, px, py, pz)

    @property
    def memory_bytes(self) -> int:
        """Bytes held by the POS_ID lookup array."""
        return int(self.pos_id.nbytes)

    def index_of(
        self, s: np.ndarray, i: np.ndarray, j: np.ndarray, k: np.ndarray
    ) -> np.ndarray:
        """Storage indices via table lookup."""
        return self.pos_id[s, i, j, k]
