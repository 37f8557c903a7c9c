"""Ghost-region synchronisation between rank windows (paper Fig. 2).

After each sublattice sector cycle, every rank sends the sites it changed to
each rank whose padded window overlaps them; receivers write the updates into
their ghost (or local, for ownership hand-overs) cells.  Two periodic
subtleties are handled explicitly:

* a rank sends to *itself* as well — with one rank along an axis the ghost
  margin wraps onto the rank's own cells;
* a global cell can have several images inside a padded window (whenever the
  window is wider than the global box along an axis), and every image must
  be written.

All traffic flows through :class:`~repro.parallel.comm.SimComm`, so it is
counted for the scaling model.
"""

from __future__ import annotations

from itertools import product
from typing import List, Tuple

import numpy as np

from ..lattice.domain import DomainBox, LocalWindow
from .comm import SimComm
from .decomposition import GridDecomposition

__all__ = ["SiteUpdates", "GhostExchanger", "in_padded_box", "window_images"]

#: Message tag for ghost updates.
GHOST_TAG = "ghost"


class SiteUpdates:
    """A batch of site changes in global coordinates."""

    def __init__(self, sublattice: np.ndarray, cell: np.ndarray, species: np.ndarray):
        self.sublattice = np.asarray(sublattice, dtype=np.int8)
        self.cell = np.asarray(cell, dtype=np.int64).reshape(-1, 3)
        self.species = np.asarray(species, dtype=np.uint8)
        if not (len(self.sublattice) == len(self.cell) == len(self.species)):
            raise ValueError("update component lengths differ")

    def __len__(self) -> int:
        return int(self.sublattice.shape[0])

    @classmethod
    def empty(cls) -> "SiteUpdates":
        return cls(np.empty(0), np.empty((0, 3)), np.empty(0))

    def select(self, mask: np.ndarray) -> "SiteUpdates":
        return SiteUpdates(self.sublattice[mask], self.cell[mask], self.species[mask])


def in_padded_box(
    cell: np.ndarray,
    box: DomainBox,
    ghost: int,
    global_shape: Tuple[int, int, int],
) -> np.ndarray:
    """Whether (wrapped) global cells have at least one image in a padded box."""
    cell = np.asarray(cell, dtype=np.int64).reshape(-1, 3)
    lo = np.array(box.lo, dtype=np.int64) - ghost
    shape = np.array(box.shape, dtype=np.int64) + 2 * ghost
    dims = np.array(global_shape, dtype=np.int64)
    rel = np.mod(cell - lo, dims)
    # The first image is at rel; an image exists iff rel < shape (when the
    # window spans the whole axis, shape >= dims and every cell qualifies).
    return np.all(rel < shape, axis=-1)


def window_images(window: LocalWindow, cell: np.ndarray) -> np.ndarray:
    """All padded-window cell images of one global cell (possibly several)."""
    dims = np.array(window.global_shape, dtype=np.int64)
    shape = np.array(window.padded_shape, dtype=np.int64)
    base = np.mod(np.asarray(cell, dtype=np.int64) - window._origin, dims)
    per_axis: List[List[int]] = []
    for axis in range(3):
        coords = []
        c = int(base[axis])
        while c < shape[axis]:
            coords.append(c)
            c += int(dims[axis])
        per_axis.append(coords)
    if not all(per_axis):
        return np.empty((0, 3), dtype=np.int64)
    return np.array(list(product(*per_axis)), dtype=np.int64)


class GhostExchanger:
    """Per-rank endpoint of the ghost synchronisation protocol."""

    def __init__(
        self,
        comm: SimComm,
        decomposition: GridDecomposition,
        window: LocalWindow,
    ) -> None:
        self.comm = comm
        self.decomposition = decomposition
        self.window = window
        # Destinations include self: with one rank along an axis the ghost
        # margin wraps onto the rank's own cells.
        self.destinations = sorted(
            set(decomposition.neighbors_of(comm.rank)) | {comm.rank}
        )
        self._dest_boxes = {
            r: decomposition.box_of_rank(r) for r in self.destinations
        }
        # Image offsets k * dims, in window_images' product order.
        dims = window._global_dims
        periods = -(-np.array(window.padded_shape) // dims)
        self._image_offsets = np.array(list(product(*map(range, periods)))) * dims

    # ------------------------------------------------------------------
    def send_updates(self, updates: SiteUpdates) -> None:
        """Route changed sites to every rank whose window may see them.

        An (empty-allowed) message goes to *every* destination each phase so
        the receive side drains deterministically.
        """
        for r in self.destinations:
            box = self._dest_boxes[r]
            if len(updates):
                mask = in_padded_box(
                    updates.cell, box, self.window.ghost,
                    self.decomposition.global_shape,
                )
                part = updates.select(mask)
            else:
                part = SiteUpdates.empty()
            self.comm.send(
                r, GHOST_TAG, (part.sublattice, part.cell, part.species)
            )

    def apply_updates(self) -> np.ndarray:
        """Receive and apply all pending updates to every window image.

        The exchange contract is exactly one message per neighbour per phase
        (the send side routes an empty-allowed message to every destination,
        and the neighbour relation is symmetric), so the receive asserts it:
        a missing or duplicated neighbour message — a dropped/delayed packet
        or a dead rank — raises a structured
        :class:`~repro.parallel.comm.ProtocolError`.

        One scatter per message, in arrival order.  A site can repeat in a
        message (a vacancy hopping back and forth) and NumPy leaves unspecified
        which repeated fancy-index write wins, so each position keeps its
        *last* occurrence.

        Returns the window half-coordinates of all written sites (used for
        cache invalidation), shape ``(n, 3)``, site-major, each site's images
        in :func:`window_images` order.
        """
        window = self.window
        written: List[np.ndarray] = []
        for _src, payload in self.comm.recv_all(
            GHOST_TAG, expected_sources=self.destinations
        ):
            subs, cells, species = payload
            if len(subs) == 0:
                continue
            base = np.mod(cells - window._origin, window._global_dims)
            images = base[:, None, :] + self._image_offsets
            inside = np.all(images < window.padded_shape, axis=-1)
            site, _ = np.nonzero(inside)  # site-major, images in order
            cell = images[inside]
            s = subs.astype(np.int64)[site]
            flat = np.ravel_multi_index((s, *cell.T), window.occupancy.shape)
            _, last = np.unique(flat[::-1], return_index=True)
            keep = flat.size - 1 - last
            window.occupancy.flat[flat[keep]] = species[site[keep]]
            written.append(window.half_coords(s, cell))
        if not written:
            return np.empty((0, 3), dtype=np.int64)
        return np.concatenate(written, axis=0)
