"""Lattice occupancy state for the Fe-Cu-vacancy AKMC system.

The full simulation box is a periodic BCC supercell of ``nx * ny * nz`` cubic
cells, i.e. ``2 * nx * ny * nz`` lattice sites.  The occupancy of every site is
one of the species codes from :mod:`repro.constants` (``FE``, ``CU``,
``VACANCY``) stored in a flat ``uint8`` array ordered as
``((s * nx + i) * ny + j) * nz + k``.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from ..constants import CU, FE, LATTICE_CONSTANT, VACANCY
from .bcc import BCCGeometry

__all__ = ["LatticeState"]


class LatticeState:
    """Periodic BCC occupancy state.

    Parameters
    ----------
    shape:
        ``(nx, ny, nz)`` number of cubic cells along each axis.
    a:
        Lattice constant in Angstrom.
    vacancy_code:
        Species code marking vacant sites.  Every site starts as Fe.
    """

    def __init__(
        self,
        shape: Sequence[int],
        a: float = LATTICE_CONSTANT,
        vacancy_code: int = VACANCY,
    ) -> None:
        nx, ny, nz = (int(v) for v in shape)
        if min(nx, ny, nz) < 1:
            raise ValueError(f"box shape must be positive, got {shape!r}")
        self.shape = (nx, ny, nz)
        self.geometry = BCCGeometry(a)
        self.occupancy = np.full(2 * nx * ny * nz, FE, dtype=np.uint8)
        self._dims = np.array([nx, ny, nz], dtype=np.int64)
        #: Species code marking vacant sites (``n_elements`` by convention;
        #: 2 for the default binary Fe-Cu system, 3 for a ternary, ...).
        self.vacancy_code = int(vacancy_code)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def a(self) -> float:
        """Lattice constant in Angstrom."""
        return self.geometry.a

    @property
    def n_sites(self) -> int:
        """Total number of lattice sites (2 per cubic cell)."""
        return int(self.occupancy.shape[0])

    @property
    def volume(self) -> float:
        """Box volume in Angstrom^3."""
        nx, ny, nz = self.shape
        return nx * ny * nz * self.a**3

    def copy(self) -> "LatticeState":
        """Deep copy of the state (geometry is shared, occupancy copied)."""
        out = LatticeState(self.shape, a=self.a, vacancy_code=self.vacancy_code)
        out.occupancy = self.occupancy.copy()
        return out

    # ------------------------------------------------------------------
    # Index arithmetic
    # ------------------------------------------------------------------
    def site_id(self, s: int, i: int, j: int, k: int) -> int:
        """Flat site index from (sublattice, cell) coordinates."""
        nx, ny, nz = self.shape
        return ((s * nx + i % nx) * ny + j % ny) * nz + k % nz

    def site_coords(self, ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Inverse of :meth:`site_id` for an array of flat indices."""
        ids = np.asarray(ids, dtype=np.int64)
        nx, ny, nz = self.shape
        k = ids % nz
        j = (ids // nz) % ny
        i = (ids // (nz * ny)) % nx
        s = ids // (nz * ny * nx)
        return s, i, j, k

    def half_coords(self, ids: np.ndarray) -> np.ndarray:
        """Half-unit integer coordinates ``(2 i + s, 2 j + s, 2 k + s)``."""
        s, i, j, k = self.site_coords(ids)
        return np.stack([2 * i + s, 2 * j + s, 2 * k + s], axis=-1)

    def half_of(self, site: int) -> Tuple[int, int, int]:
        """:meth:`half_coords` of one site, in Python ints.

        The event loop moves one site per hop; decoding it through
        1-element arrays costs more than the whole rest of the hop.
        """
        nx, ny, nz = self.shape
        rest, k = divmod(int(site), nz)
        rest, j = divmod(rest, ny)
        s, i = divmod(rest, nx)
        return (2 * i + s, 2 * j + s, 2 * k + s)

    def site_at_half(self, x: int, y: int, z: int) -> int:
        """:meth:`ids_from_half` of one position: parity check + periodic wrap."""
        s = x & 1
        if (y & 1) != s or (z & 1) != s:
            raise ValueError(
                "half coordinates with mixed parity are not BCC sites"
            )
        nx, ny, nz = self.shape
        return (
            (s * nx + ((x - s) >> 1) % nx) * ny + ((y - s) >> 1) % ny
        ) * nz + ((z - s) >> 1) % nz

    def ids_from_half(self, half: np.ndarray, checked: bool = True) -> np.ndarray:
        """Flat site indices from half-unit coordinates with periodic wrap.

        ``checked=False`` skips the parity validation for callers whose
        coordinates are valid BCC sites by construction (e.g. a lattice
        site plus BCC offsets) — the hot re-rate path takes this branch.
        """
        half = np.asarray(half, dtype=np.int64)
        s = half[..., 0] & 1
        if checked:
            parity_ok = ((half[..., 1] & 1) == s) & ((half[..., 2] & 1) == s)
            if not np.all(parity_ok):
                raise ValueError(
                    "half coordinates with mixed parity are not BCC sites"
                )
        cells = (half - s[..., None]) >> 1
        cells = np.mod(cells, self._dims)
        nx, ny, nz = self.shape
        return ((s * nx + cells[..., 0]) * ny + cells[..., 1]) * nz + cells[..., 2]

    def neighbor_ids(self, center_id: int, offsets: np.ndarray) -> np.ndarray:
        """Flat indices of the sites at ``offsets`` (half-units) from a site.

        This is the hot path used to translate the CET (relative coordinates
        encoding tabulation) onto an arbitrary centre site; periodic wrapping
        is applied, so the result is always valid.
        """
        center = self.half_coords(np.asarray([center_id]))[0]
        return self.ids_from_half(center[None, :] + np.asarray(offsets, dtype=np.int64))

    def positions(self, ids: np.ndarray) -> np.ndarray:
        """Cartesian positions in Angstrom of the given sites."""
        return self.half_coords(ids) * (self.a / 2.0)

    def minimum_image_displacement(self, id_a: int, id_b: int) -> np.ndarray:
        """Minimum-image displacement vector (Angstrom) from site a to site b."""
        half = self.half_coords(np.asarray([id_a, id_b]))
        delta = (half[1] - half[0]).astype(np.float64)
        span = 2.0 * self._dims.astype(np.float64)
        delta -= span * np.round(delta / span)
        return delta * (self.a / 2.0)

    # ------------------------------------------------------------------
    # Occupancy manipulation
    # ------------------------------------------------------------------
    def swap(self, id_a: int, id_b: int) -> None:
        """Exchange the occupants of two sites (one vacancy-hop event)."""
        occ = self.occupancy
        occ[id_a], occ[id_b] = occ[id_b], occ[id_a]

    def species_counts(self) -> np.ndarray:
        """Counts per species code (vacancy last)."""
        n = self.vacancy_code + 1
        return np.bincount(self.occupancy, minlength=n)[:n]

    def sites_of_species(self, species: int) -> np.ndarray:
        """Flat indices of all sites holding the given species."""
        return np.flatnonzero(self.occupancy == species)

    @property
    def vacancy_ids(self) -> np.ndarray:
        """Flat indices of all vacancies."""
        return self.sites_of_species(self.vacancy_code)

    # ------------------------------------------------------------------
    # Initialisation helpers
    # ------------------------------------------------------------------
    def randomize_alloy(
        self,
        rng: np.random.Generator,
        cu_fraction: float,
        vacancy_fraction: float,
    ) -> None:
        """Populate a random Fe-Cu solid solution with dilute vacancies.

        ``cu_fraction`` and ``vacancy_fraction`` are site fractions; the paper
        uses 1.34 at.% Cu and 8e-4 at.% vacancies.  At least one vacancy is
        placed so that small test boxes still evolve.
        """
        if not 0.0 <= cu_fraction <= 1.0:
            raise ValueError(f"cu_fraction out of range: {cu_fraction!r}")
        if not 0.0 <= vacancy_fraction <= 1.0:
            raise ValueError(f"vacancy_fraction out of range: {vacancy_fraction!r}")
        self.randomize_multicomponent(rng, {CU: cu_fraction}, vacancy_fraction)

    def randomize_multicomponent(
        self,
        rng: np.random.Generator,
        solute_fractions: dict,
        vacancy_fraction: float,
    ) -> None:
        """Random solid solution with several solute species.

        ``solute_fractions`` maps species codes (1 .. n_elements-1) to site
        fractions; the remainder is the host (Fe).  At least one vacancy is
        placed, with ``self.vacancy_code``.
        """
        n = self.n_sites
        n_vac = max(int(round(vacancy_fraction * n)), 1)
        solute_counts = {
            int(code): int(round(frac * n))
            for code, frac in solute_fractions.items()
        }
        total = n_vac + sum(solute_counts.values())
        if total > n:
            raise ValueError("solute + vacancy fractions exceed the box size")
        for code in solute_counts:
            if not 0 < code < self.vacancy_code:
                raise ValueError(
                    f"solute code {code} outside (0, {self.vacancy_code})"
                )
        self.occupancy[:] = FE
        chosen = rng.choice(n, size=total, replace=False)
        start = 0
        for code, count in solute_counts.items():
            self.occupancy[chosen[start : start + count]] = code
            start += count
        self.occupancy[chosen[start:]] = self.vacancy_code

    def place_species(self, ids: Iterable[int], species: int) -> None:
        """Place a species on specific sites (test/construction helper)."""
        for sid in ids:
            self.occupancy[int(sid)] = species

    # ------------------------------------------------------------------
    # Summaries
    # ------------------------------------------------------------------
    def concentration(self, species: int) -> float:
        """Site fraction of a species."""
        return float(self.species_counts()[species]) / self.n_sites

    def __repr__(self) -> str:
        counts = ", ".join(str(int(c)) for c in self.species_counts())
        return (
            f"LatticeState(shape={self.shape}, a={self.a}, "
            f"species_counts=[{counts}])"
        )
