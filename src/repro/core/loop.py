"""The one AKMC event body and the two site stores it runs over.

The paper's sublattice protocol (Sec. 2.2, Fig. 2b) is the serial AKMC
event applied sector by sector under a ``t_stop`` horizon, so every driver
steps through :func:`kmc_event`:

    refresh -> select -> residence time -> (horizon rejection) -> hop
    -> move -> invalidate

:meth:`~repro.core.engine.SerialAKMCBase.step` is one event with no horizon
(the campaign steps its replicas through it too), and
:meth:`~repro.parallel.engine.RankState.run_sector` loops events up to
``t_stop``.  The body runs over a *site store* that owns the coordinate
space of the kernel's slot keys:

* :class:`LatticeSites` — flat site ids over a periodic
  :class:`~repro.lattice.occupancy.LatticeState` (serial engines, campaign
  replicas);
* :class:`WindowSites` — half-unit key tuples over a rank's padded
  :class:`~repro.lattice.domain.LocalWindow`.

A store supplies ``position_of(key)`` (integer half-unit coordinates),
``hop(key, direction)`` (swap the vacancy with its 1NN neighbour and return
``(to_key, migrating species)``, or ``None`` when stale data blocks the
hop), ``gather(keys)`` (from-scratch VET species codes, for
:class:`~repro.core.delta.DeltaRebuilder`) and ``footprint(points_half)``
(the vacancies whose VET holds a changed site, for
:meth:`~repro.core.kernel.EventKernel.invalidate_near`).

``footprint`` runs the TET stencil backwards: the vacancy centred at
``p - o_i`` holds site ``p`` at VET position ``i`` (Eq. 4), so the
candidate centres of a changed site are its flat id plus one precomputed
offset vector per sublattice parity — no stored VET site ids and no
distance test.  On the periodic lattice ``gather`` runs the same stencil
forwards (the VET of the vacancy at ``p`` is ``p + o_i``), and either
direction wraps a site within reach of a box face along that axis; in a
rank's window, where keys never leave the window, a centre past the edge
is dropped by its key instead.
The stencil finds a slot through the vacancy code at its key, which every
live registry key holds (``tests/test_loop_invariants.py``).
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from ..lattice.domain import LocalWindow
from ..lattice.occupancy import LatticeState
from .kernel import EventKernel, NoMovesError
from .profiling import PhaseProfiler
from .rates import residence_time
from .tet import TripleEncoding

__all__ = ["LatticeSites", "WindowSites", "kmc_event"]


def kmc_event(
    kernel: EventKernel,
    sites,
    rng: np.random.Generator,
    profiler: PhaseProfiler,
    clock: float = 0.0,
    horizon: float = math.inf,
):
    """Execute one residence-time event of ``kernel`` over ``sites``.

    The draw order is fixed — selection, then time (see
    :func:`~repro.core.rates.residence_time`) — so identical seeds give
    identical trajectories in every driver.  Returns ``None`` when
    ``clock + dt`` overshoots ``horizon`` (the semirigorous rejection:
    nothing moves), else ``(slot, direction, from_key, to_key, migrating,
    dt, total)``.  When the store reports stale data, the slot is dropped
    from the active set and ``to_key`` and ``migrating`` are ``None``.
    Raises :class:`~repro.core.kernel.NoMovesError` when the total
    propensity is zero or the selection lands on a dead rate row.
    """
    with profiler.phase("rebuild"):
        kernel.refresh()
    with profiler.phase("select"):
        total = kernel.total
        if total <= 0.0:
            raise NoMovesError("total propensity is zero — system is frozen")
        slot, direction = kernel.select(rng.random() * total)
        dt = residence_time(total, 1.0 - rng.random())
        if clock + dt > horizon:
            return None
    with profiler.phase("hop"):
        from_key = kernel.key_of(slot)
        hop = sites.hop(from_key, direction)
        if hop is None:
            kernel.deactivate(slot)
            return slot, direction, from_key, None, None, dt, total
        to_key, migrating = hop
        kernel.move(slot, to_key)
    with profiler.phase("invalidate"):
        kernel.invalidate_near(
            (sites.position_of(from_key), sites.position_of(to_key))
        )
    return slot, direction, from_key, to_key, migrating, dt, total


def _stencil(offsets: np.ndarray, shape) -> Tuple[np.ndarray, np.ndarray]:
    """The TET read backwards over a ``(2, nx, ny, nz)`` flat site layout.

    The vacancy centred at ``p - o_i`` holds site ``p`` at VET position
    ``i`` (Eq. 4).  Returns, per sublattice parity of ``p`` (axis 0), the
    ``(n_all,)`` flat-id offsets of those centres from ``p`` — exact
    wherever no cell coordinate leaves the box — and the ``(n_all, 3)``
    cell shifts from ``p``'s cell to theirs.
    """
    nx, ny, nz = shape
    parity = np.arange(2)[:, None]
    sub = parity ^ (offsets[:, 0] & 1)
    shift = ((parity - sub)[..., None] - offsets) >> 1
    flat = (sub - parity) * (nx * ny * nz) + shift @ np.array([ny * nz, nz, 1])
    return flat, shift


def _periodic_stencil(offsets: np.ndarray, shape):
    """:func:`_stencil` on a periodic box: the flat offsets, and per axis
    the ``(2, n_all)`` cell shifts, the cells ``lo <= c < hi`` whose shifts
    never leave the box, the box size and the flat stride."""
    flat, shift = _stencil(offsets, shape)
    nx, ny, nz = shape
    axes = [
        (np.ascontiguousarray(shift[..., a]), int(-shift[..., a].min()),
         n - int(shift[..., a].max()), n, stride)
        for a, (n, stride) in enumerate(((nx, ny * nz), (ny, nz), (nz, 1)))
    ]
    return flat, axes


def _periodic_row(stencil, site: int, sub: int, cell) -> np.ndarray:
    """The stencil's ``(n_all,)`` site ids around ``site`` (sublattice
    ``sub``, cell ``cell``): one add, and a wrap on each axis within reach
    of a box face."""
    flat, axes = stencil
    row = flat[sub] + site
    for c, (shift, lo, hi, n, stride) in zip(cell, axes):
        if not lo <= c < hi:
            row -= (shift[sub] + c) // n * (n * stride)
    return row


class LatticeSites:
    """Flat site ids over a periodic lattice: the serial site store.

    The lattice is the one global state, so a hop never meets stale data.
    """

    def __init__(self, lattice: LatticeState, tet: TripleEncoding) -> None:
        self.lattice = lattice
        #: 1NN hop vectors as Python ints: the hop's coordinate arithmetic
        #: is scalar, array round-trips would dominate it.
        self._nn = [tuple(row) for row in tet.nn_offsets.tolist()]
        #: The TET backwards (a site's centres) and forwards (a centre's VET).
        self._behind = _periodic_stencil(tet.all_offsets, lattice.shape)
        self._ahead = _periodic_stencil(-tet.all_offsets, lattice.shape)

    def position_of(self, site):
        return self.lattice.half_of(site)

    def hop(self, site, direction: int):
        lattice = self.lattice
        x, y, z = lattice.half_of(site)
        dx, dy, dz = self._nn[direction]
        to_site = lattice.site_at_half(x + dx, y + dy, z + dz)
        migrating = int(lattice.occupancy[to_site])
        lattice.swap(site, to_site)
        return to_site, migrating

    def gather(self, keys):
        """From-scratch VET codes of a key batch.

        The VET of the vacancy at site ``p`` holds the sites ``p + o_i``:
        the forward stencil, one add per key plus a wrap on each axis
        within reach of a box face.  The usual batch is a single key (the
        event's mover), so the key's decomposition runs in Python scalars.
        """
        lattice = self.lattice
        nx, ny, nz = lattice.shape
        n_all = self._ahead[0].shape[1]
        vet_ids = np.empty((len(keys), n_all), dtype=np.int64)
        for n, site in enumerate(keys):
            rest, z = divmod(int(site), nz)
            rest, y = divmod(rest, ny)
            sub, x = divmod(rest, nx)
            vet_ids[n] = _periodic_row(self._ahead, site, sub, (x, y, z))
        return lattice.occupancy[vet_ids]

    def footprint(self, points_half):
        """Every vacancy whose VET holds one of the changed sites.

        Returns ``(keys, positions, species)`` per hit: the vacancy's site
        id, the VET position of the changed site and its current species.
        A site given twice counts once.  The centres of a site are one add
        away from its id; on an axis within reach of a box face they wrap.
        """
        lattice = self.lattice
        occupancy = lattice.occupancy
        nx, ny, nz = lattice.shape
        rows = {}
        for x, y, z in points_half:
            sub = x & 1
            cell = ((x >> 1) % nx, (y >> 1) % ny, (z >> 1) % nz)
            site = ((sub * nx + cell[0]) * ny + cell[1]) * nz + cell[2]
            if site in rows:
                continue
            rows[site] = _periodic_row(self._behind, site, sub, cell)
        centres = np.array(list(rows.values()))
        point, positions = np.nonzero(occupancy[centres] == lattice.vacancy_code)
        sites = np.fromiter(rows, dtype=np.int64, count=len(rows))
        return (
            centres[point, positions].tolist(),
            positions,
            occupancy[sites[point]],
        )


class WindowSites:
    """Half-unit key tuples over a rank's padded window.

    The stencil runs over window-flat site ids, unique per padded position:
    periodic aliases of one global site are distinct window sites (a hop
    writes the primary position, the post-cycle ghost exchange writes the
    aliases).
    """

    def __init__(
        self, window: LocalWindow, tet: TripleEncoding, vacancy_code: int
    ) -> None:
        self.window = window
        self.vacancy_code = int(vacancy_code)
        self._offsets = tet.all_offsets
        self._nn = [tuple(row) for row in tet.nn_offsets.tolist()]
        px, py, pz = window.padded_shape
        self._strides = np.array([py * pz, pz, 1], dtype=np.int64)
        self._n_cells = px * py * pz
        self._offset = _stencil(tet.all_offsets, window.padded_shape)[0]

    def position_of(self, key):
        return key

    def hop(self, key, direction: int):
        """Swap on key tuples: occupancy at ``(x & 1, x >> 1, y >> 1, z >> 1)``.

        Returns ``None`` when the site no longer holds the vacancy or the
        target holds one — reachable only through stale data in naive mode
        (a would-be boundary conflict); the sublattice protocol forbids it.
        """
        occupancy = self.window.occupancy
        vacancy = self.vacancy_code
        x, y, z = key
        dx, dy, dz = self._nn[direction]
        tx, ty, tz = to_key = (x + dx, y + dy, z + dz)
        vac_site = (x & 1, x >> 1, y >> 1, z >> 1)
        tgt_site = (tx & 1, tx >> 1, ty >> 1, tz >> 1)
        migrating = int(occupancy[tgt_site])
        if occupancy[vac_site] != vacancy or migrating == vacancy:
            return None
        occupancy[vac_site] = migrating
        occupancy[tgt_site] = vacancy
        return to_key, migrating

    def gather(self, keys):
        vet_half = np.asarray(keys, dtype=np.int64)[:, None, :] + self._offsets
        return self.window.species_at_half(vet_half)

    def footprint(self, points_half):
        """Every vacancy whose VET holds one of the changed sites.

        Returns ``(keys, positions, species)`` per hit: the vacancy's key,
        the VET position of the changed site and its current species.  A
        site given twice counts once.  The stencil is not masked to the
        window: near an edge its flat offsets alias other sites (clipped to
        the array), but a key is the exact ``p - o_i`` of its hit, and a
        centre outside the window is no key of this rank — the registry
        probe drops it.  A centre inside the window is read exactly.
        """
        occupancy = self.window.occupancy.reshape(-1)
        points = np.asarray(points_half, dtype=np.int64).reshape(-1, 3)
        sub = points[:, 0] & 1
        ids = sub * self._n_cells + (points >> 1) @ self._strides
        if ids.size > 2 or (ids.size == 2 and ids[0] == ids[1]):
            ids, first = np.unique(ids, return_index=True)
            points, sub = points[first], sub[first]
        centres = self._offset[sub] + ids[:, None]
        hit = occupancy.take(centres, mode="clip") == self.vacancy_code
        point, positions = np.nonzero(hit)
        keys = points[point] - self._offsets[positions]
        return list(map(tuple, keys.tolist())), positions, occupancy[ids[point]]
