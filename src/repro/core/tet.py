"""Triple-encoding tabulation (TET) — paper Sec. 3.1.

A vacancy system is the dense cluster of sites whose energies can change when
the central vacancy performs one 1NN hop.  TET describes it with three
tabulations:

* **CET** (coordinates encoding tabulation): relative half-unit offsets of the
  ``N_local`` in-cutoff neighbours of a site.  Purely geometric, shared by all
  sites (every BCC site is geometrically equivalent).
* **NET** (neighbour-list encoding tabulation): for every site in the *jumping
  region*, the indices (into the vacancy-system site list) and shell of each
  of its neighbours.
* **VET** (vacancy encoding tabulation): the only per-instance data — a vector
  of species codes for all ``N_all`` sites of one concrete vacancy system.

Site ordering convention (used throughout the engines):
``0`` = the vacancy centre, ``1..8`` = the eight 1NN sites in the fixed hop
direction order, then the remaining region sites, then the outer shell.  For
the paper's r_cut = 6.5 A this gives ``N_local = 112`` and ``N_region = 253``
(Sec. 4.1.1), which the test-suite asserts.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..constants import LATTICE_CONSTANT
from ..lattice.bcc import BCCGeometry

__all__ = ["TripleEncoding"]


class TripleEncoding:
    """The CET/NET tables of a vacancy system for one (a, r_cut) pair.

    Parameters
    ----------
    rcut:
        Interaction cutoff radius in Angstrom.
    a:
        Lattice constant in Angstrom.

    Attributes
    ----------
    cet_offsets:
        ``(n_local, 3)`` half-unit offsets of a site's neighbours (the CET).
    cet_shell:
        ``(n_local,)`` shell index of each CET entry (distance is a function
        of the offset only, so NET's distance column collapses to this).
    all_offsets:
        ``(n_all, 3)`` half-unit offsets of every site of the vacancy system
        relative to the centre, in the canonical order described above.
    net_ids:
        ``(n_region, n_local)`` NET: ``net_ids[i, j]`` is the index into
        ``all_offsets`` of the j-th neighbour of region site i.
    shell_distances:
        ``(n_shells,)`` shell distances in Angstrom.
    min_box_cells:
        Fewest cubic cells per axis a periodic box needs for this cutoff
        (:meth:`check_box`).
    """

    #: VET index of the centre site.
    CENTER = 0
    #: VET indices of the eight hop targets (1NN sites).
    N_DIRECTIONS = 8

    def __init__(self, rcut: float, a: float = LATTICE_CONSTANT) -> None:
        self.rcut = float(rcut)
        self.geometry = BCCGeometry(a)
        shells = self.geometry.shells_within(rcut)
        self.shells = shells
        self.cet_offsets = shells.offsets
        self.cet_shell = shells.shell_index
        self.shell_distances = shells.shell_distances
        self.n_local = shells.n_sites
        self.n_shells = shells.n_shells

        first_shell = self.cet_offsets[self.cet_shell == 0]
        if first_shell.shape[0] != self.N_DIRECTIONS:
            raise ValueError(
                f"rcut={rcut} does not include the 1NN shell "
                f"({first_shell.shape[0]} sites found)"
            )
        self.nn_offsets = first_shell  # lexicographic order, deterministic

        # Two CET offsets of a site differ by up to twice the largest CET
        # component, so a box of fewer cells aliases them to one site.
        self.min_box_cells = int(np.max(np.abs(self.cet_offsets))) + 1
        self._build_tables()
        # Any lattice change within this radius of a system's centre can
        # alter its VET -> used by the vacancy cache for invalidation.
        self.invalidation_radius = float(
            np.max(self.geometry.offset_distance(self.all_offsets))
        )
        # Ghost margin (in cubic cells) a domain window needs so that every
        # VET of a locally-owned vacancy resolves inside the window.
        self.ghost_cells = int(np.ceil(np.max(np.abs(self.all_offsets)) / 2.0))
        # Minimum sublattice sector width (cells) for conflict-free parallel
        # cycles: the gap between same-numbered sectors of adjacent ranks
        # must exceed the VET reach even after each side's changes extend
        # one 1NN hop beyond its sector (see parallel.sublattice).
        hop = self.geometry.a  # conservative: one full cell of hop extension
        self.min_sector_cells = int(
            np.ceil((self.invalidation_radius + hop) / self.geometry.a)
        )

    # ------------------------------------------------------------------
    def _build_tables(self) -> None:
        """Canonical site lists and the NET, by fancy indexing into one cube
        of every reachable offset: ``2 c + 1`` half-units per component, for
        ``c`` the largest CET component (a 1NN hop plus two CET offsets)."""
        cet = self.cet_offsets
        reach = 2 * int(np.max(np.abs(cet))) + 1
        shape = (2 * reach + 1,) * 3

        def cells(rows: np.ndarray):
            return tuple(np.moveaxis(rows + reach, -1, 0))

        def sorted_rows(mask: np.ndarray) -> np.ndarray:
            rows = np.argwhere(mask) - reach
            d = self.geometry.offset_distance(rows)
            return rows[np.lexsort((rows[:, 2], rows[:, 1], rows[:, 0], d))]

        # Region: centre, its neighbours, and the neighbours of its 1NN sites.
        hubs = np.concatenate([np.zeros((1, 3), dtype=np.int64), self.nn_offsets])
        in_region = np.zeros(shape, dtype=bool)
        in_region[cells(hubs[:, None, :] + cet)] = True
        in_region[cells(hubs[0])] = True
        # Outer: neighbours of region sites that are not themselves in region.
        in_outer = np.zeros(shape, dtype=bool)
        in_outer[cells((np.argwhere(in_region) - reach)[:, None, :] + cet)] = True
        in_outer &= ~in_region
        in_region[cells(hubs)] = False
        region_rest = sorted_rows(in_region)
        self.all_offsets = np.concatenate([hubs, region_rest, sorted_rows(in_outer)])
        self.n_region = len(hubs) + len(region_rest)
        self.n_all = self.all_offsets.shape[0]
        self.n_out = self.n_all - self.n_region

        # NET: neighbour indices of every region site, into ``all_offsets``.
        index = np.full(shape, -1, dtype=np.int32)
        index[cells(self.all_offsets)] = np.arange(self.n_all, dtype=np.int32)
        self.net_ids = index[cells(self.all_offsets[: self.n_region, None, :] + cet)]
        if np.any(self.net_ids < 0):  # pragma: no cover - construction bug
            raise AssertionError(
                "a region site's neighbour is missing from the site list"
            )

    # ------------------------------------------------------------------
    def direction_vet_index(self, direction: int) -> int:
        """VET index of the 1NN target of a hop direction (0..7)."""
        if not 0 <= direction < self.N_DIRECTIONS:
            raise ValueError(f"direction must be in [0, 8), got {direction}")
        return 1 + direction

    def check_box(self, shape) -> None:
        """Raise :class:`ValueError` if a periodic box of ``shape`` cells is
        below :attr:`min_box_cells` along any axis."""
        if min(shape) < self.min_box_cells:
            raise ValueError(
                f"box {tuple(int(n) for n in shape)} is too small for "
                f"rcut={self.rcut:g} A: every axis needs at least "
                f"{self.min_box_cells} cells"
            )

    def describe(self) -> Dict[str, float]:
        """Size summary (the Sec. 4.1.1 numbers)."""
        return {
            "rcut": self.rcut,
            "n_local": self.n_local,
            "n_region": self.n_region,
            "n_out": self.n_out,
            "n_all": self.n_all,
            "n_shells": self.n_shells,
            "invalidation_radius": self.invalidation_radius,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        d = self.describe()
        return (
            f"TripleEncoding(rcut={self.rcut}, n_local={d['n_local']}, "
            f"n_region={d['n_region']}, n_all={d['n_all']})"
        )

