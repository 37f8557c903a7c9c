"""Per-rank padded domain windows for the parallel AKMC engine.

Each MPI rank owns a rectangular box of cubic cells out of the global periodic
box, surrounded by a ghost margin wide enough to cover the interaction range
(paper Fig. 2).  The window stores occupancy for local *and* ghost sites in a
non-periodic ``(2, px, py, pz)`` array; ghost planes are refreshed from the
neighbouring ranks by :mod:`repro.parallel.ghost`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..constants import FE, LATTICE_CONSTANT, VACANCY
from .indexing import PaddedWindow

__all__ = ["DomainBox", "LocalWindow"]


@dataclass(frozen=True)
class DomainBox:
    """A rank's cell box ``[lo, hi)`` within the global box (cell units)."""

    lo: Tuple[int, int, int]
    hi: Tuple[int, int, int]

    def __post_init__(self) -> None:
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError(f"empty domain box: lo={self.lo} hi={self.hi}")

    @property
    def shape(self) -> Tuple[int, int, int]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    @property
    def n_cells(self) -> int:
        sx, sy, sz = self.shape
        return sx * sy * sz

    @property
    def n_sites(self) -> int:
        return 2 * self.n_cells


class LocalWindow:
    """Occupancy window of one rank: local cells plus a ghost margin.

    Parameters
    ----------
    box:
        The rank's local cell box within the global lattice.
    global_shape:
        ``(nx, ny, nz)`` of the global periodic box, used to wrap ghost
        coordinates back onto owning ranks.
    ghost:
        Ghost margin in cells.
    a:
        Lattice constant in Angstrom.
    """

    def __init__(
        self,
        box: DomainBox,
        global_shape: Tuple[int, int, int],
        ghost: int,
        a: float = LATTICE_CONSTANT,
    ) -> None:
        self.box = box
        self.global_shape = tuple(int(v) for v in global_shape)
        self.ghost = int(ghost)
        self.a = float(a)
        self.window = PaddedWindow(local_shape=box.shape, ghost=self.ghost)
        px, py, pz = self.window.padded_shape
        self.occupancy = np.full((2, px, py, pz), FE, dtype=np.uint8)
        self._global_dims = np.array(self.global_shape, dtype=np.int64)
        self._origin = np.array(box.lo, dtype=np.int64) - self.ghost

    # ------------------------------------------------------------------
    # Coordinate mapping
    # ------------------------------------------------------------------
    @property
    def padded_shape(self) -> Tuple[int, int, int]:
        return self.window.padded_shape

    def padded_cell_of_global(self, global_cell: np.ndarray) -> np.ndarray:
        """Padded-window cell coordinates of global cells (minimum image).

        The global box is periodic; a global cell may map into the window
        through a periodic image.  The image closest to the window interior is
        chosen, which is unique as long as the window spans less than half the
        global box (asserted by the decomposition layer).
        """
        global_cell = np.asarray(global_cell, dtype=np.int64)
        rel = global_cell - self._origin
        dims = self._global_dims
        rel = rel - dims * np.round((rel - (np.array(self.padded_shape) - 1) / 2.0) / dims).astype(np.int64)
        return rel

    def half_coords(self, s: np.ndarray, cell: np.ndarray) -> np.ndarray:
        """Window half-unit coordinates of sites (sublattice, padded cell)."""
        s = np.asarray(s, dtype=np.int64)
        cell = np.asarray(cell, dtype=np.int64)
        return 2 * cell + s[..., None]

    def site_from_half(self, half: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """(sublattice, padded cell) of window half-unit coordinates."""
        half = np.asarray(half, dtype=np.int64)
        s = half[..., 0] & 1
        cell = (half - s[..., None]) >> 1
        return s, cell

    def species_at_half(self, half: np.ndarray) -> np.ndarray:
        """Occupancy at window half-unit coordinates (must be in-window)."""
        s, cell = self.site_from_half(half)
        return self.occupancy[s, cell[..., 0], cell[..., 1], cell[..., 2]]

    def set_species_at_half(self, half: np.ndarray, species: np.ndarray | int) -> None:
        """Write occupancy at window half-unit coordinates."""
        s, cell = self.site_from_half(half)
        self.occupancy[s, cell[..., 0], cell[..., 1], cell[..., 2]] = species

    def is_local_half(self, half: np.ndarray) -> np.ndarray:
        """Whether half-unit coordinates lie in the local (owned) box."""
        _, cell = self.site_from_half(np.asarray(half, dtype=np.int64))
        g = self.ghost
        shape = np.array(self.box.shape, dtype=np.int64)
        return np.all((cell >= g) & (cell < g + shape), axis=-1)

    def global_cell_of_padded(self, padded_cell: np.ndarray) -> np.ndarray:
        """Global (wrapped) cell coordinates of padded window cells."""
        padded_cell = np.asarray(padded_cell, dtype=np.int64)
        return np.mod(padded_cell + self._origin, self._global_dims)

    # ------------------------------------------------------------------
    # Bulk fill / extract (used by tests and the gather step)
    # ------------------------------------------------------------------
    def fill_from_global(self, occupancy: np.ndarray) -> None:
        """Copy local + ghost occupancy out of a global ``(2,nx,ny,nz)`` array."""
        px, py, pz = self.padded_shape
        gi = np.mod(self._origin[0] + np.arange(px), self.global_shape[0])
        gj = np.mod(self._origin[1] + np.arange(py), self.global_shape[1])
        gk = np.mod(self._origin[2] + np.arange(pz), self.global_shape[2])
        self.occupancy[:] = occupancy[:, gi[:, None, None], gj[None, :, None], gk[None, None, :]]

    def local_block(self) -> np.ndarray:
        """View of the owned (non-ghost) occupancy block."""
        g = self.ghost
        sx, sy, sz = self.box.shape
        return self.occupancy[:, g : g + sx, g : g + sy, g : g + sz]

    def local_vacancy_half_coords(self, vacancy_code: int = VACANCY) -> np.ndarray:
        """Window half-unit coordinates of all vacancies in the owned box."""
        g = self.ghost
        sx, sy, sz = self.box.shape
        block = self.local_block()
        s, i, j, k = np.nonzero(block == vacancy_code)
        cell = np.stack([i + g, j + g, k + g], axis=-1)
        return self.half_coords(s, cell)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LocalWindow(box={self.box.lo}->{self.box.hi}, ghost={self.ghost}, "
            f"padded={self.padded_shape})"
        )
