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
hop), and the two coordinate callbacks of
:class:`~repro.core.delta.DeltaRebuilder`: ``gather(keys)`` (from-scratch
``(vet_ids, vets)``) and ``locate(points_half)`` (current ``(ids,
species)`` at changed positions, in the ``vet_ids`` id space).
"""

from __future__ import annotations

import math

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


class LatticeSites:
    """Flat site ids over a periodic lattice: the serial site store.

    The lattice is the one global state, so a hop never meets stale data.
    """

    def __init__(self, lattice: LatticeState, tet: TripleEncoding) -> None:
        self.lattice = lattice
        self._offsets = tet.all_offsets
        #: 1NN hop vectors as Python ints: the hop's coordinate arithmetic
        #: is scalar, array round-trips would dominate it.
        self._nn = [tuple(row) for row in tet.nn_offsets.tolist()]

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
        """From-scratch ``(vet_ids, vets)`` of a key batch.

        Keys are lattice sites and the VET offsets are BCC translations, so
        every generated coordinate is a valid site and the parity check is
        skipped.  The usual batch is a single key (the event's mover), so
        the centre decomposition runs in Python scalars and only the
        per-window work is vectorised — the modular arithmetic of
        :meth:`~repro.lattice.occupancy.LatticeState.ids_from_half`, one
        window at a time, so a cold start's transient stays one window.
        """
        lattice = self.lattice
        nx, ny, nz = lattice.shape
        offsets = self._offsets
        vet_ids = np.empty((len(keys), offsets.shape[0]), dtype=np.int64)
        for n, key in enumerate(keys):
            vet_half = offsets + np.array(lattice.half_of(key), dtype=np.int64)
            ss = vet_half[:, 0] & 1
            cells = (vet_half - ss[:, None]) >> 1
            cells %= lattice._dims
            vet_ids[n] = (
                (ss * nx + cells[:, 0]) * ny + cells[:, 1]
            ) * nz + cells[:, 2]
        return vet_ids, lattice.occupancy[vet_ids]

    def locate(self, points_half: np.ndarray):
        ids = self.lattice.ids_from_half(points_half, checked=False)
        return ids, self.lattice.occupancy[ids]


class WindowSites:
    """Half-unit key tuples over a rank's padded window.

    VET snapshots are keyed by window-flat site ids, unique per padded
    position: periodic aliases of one global site are distinct window
    sites (a hop writes the primary position, the post-cycle ghost
    exchange writes the aliases).
    """

    def __init__(
        self, window: LocalWindow, tet: TripleEncoding, vacancy_code: int
    ) -> None:
        self.window = window
        self.vacancy_code = int(vacancy_code)
        self._offsets = tet.all_offsets
        self._nn = [tuple(row) for row in tet.nn_offsets.tolist()]

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

    def _flat_ids(self, half: np.ndarray) -> np.ndarray:
        """Flat site ids over the padded window ``(2, px, py, pz)``."""
        s, cell = self.window.site_from_half(half)
        px, py, pz = self.window.padded_shape
        return ((s * px + cell[..., 0]) * py + cell[..., 1]) * pz + cell[..., 2]

    def gather(self, keys):
        vet_half = np.asarray(keys, dtype=np.int64)[:, None, :] + self._offsets
        return self._flat_ids(vet_half), self.window.species_at_half(vet_half)

    def locate(self, points_half: np.ndarray):
        points = np.asarray(points_half, dtype=np.int64).reshape(-1, 3)
        return self._flat_ids(points), self.window.species_at_half(points)
