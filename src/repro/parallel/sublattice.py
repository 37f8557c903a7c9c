"""Synchronous sublattice sector geometry (Shim & Amar, paper Fig. 2b).

Each rank's local box is split into eight octant sectors.  In every cycle all
ranks work on the *same* sector number, so the concurrently-active subregions
of neighbouring ranks are separated by at least one sector width; as long as
that width covers the interaction reach, no two ranks can touch the same
site in one cycle — boundary conflicts are impossible by construction.
"""

from __future__ import annotations

import numpy as np

from ..lattice.domain import DomainBox

__all__ = ["SectorGeometry", "N_SECTORS"]

#: Eight octants per domain, as in the paper.
N_SECTORS = 8


class SectorGeometry:
    """Octant sector arithmetic for one rank's local box.

    Parameters
    ----------
    box:
        The rank's cell box.
    min_width_cells:
        Required minimum sector width in cells (``TripleEncoding``'s
        ``min_sector_cells``: the VET reach plus one hop of slack, so that
        even changes extending one 1NN step past their sector stay outside
        every concurrently-active vacancy's environment).
    """

    def __init__(self, box: DomainBox, min_width_cells: int) -> None:
        self.box = box
        self.min_width_cells = int(min_width_cells)
        shape = np.array(box.shape, dtype=np.int64)
        self.mid = shape // 2
        min_sector = int(np.min(np.minimum(self.mid, shape - self.mid)))
        if min_sector < self.min_width_cells:
            raise ValueError(
                f"sector width {min_sector} cells < required "
                f"{self.min_width_cells} cells: the synchronous sublattice "
                f"algorithm cannot guarantee conflict-free hops; use a "
                f"larger per-rank box (box shape {box.shape})"
            )

    def sector_of_local_cell(self, local_cell: np.ndarray) -> np.ndarray:
        """Sector index (0..7) of local cell coordinates (box-relative)."""
        local_cell = np.asarray(local_cell, dtype=np.int64)
        bits = (local_cell >= self.mid).astype(np.int64)
        return (bits[..., 0] << 2) | (bits[..., 1] << 1) | bits[..., 2]

    def sector_of_half(self, half: np.ndarray, ghost: int) -> np.ndarray:
        """Sector of *window* half-unit coordinates of local sites."""
        half = np.asarray(half, dtype=np.int64)
        s = half[..., 0] & 1  # sublattice parity (shared by all components)
        cell = ((half - s[..., None]) >> 1) - ghost  # box-relative local cell
        return self.sector_of_local_cell(cell)
