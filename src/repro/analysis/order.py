"""Warren-Cowley short-range order — quantifying demixing beyond clusters.

The cluster counts of Figs. 8/14 are threshold statistics; the Warren-Cowley
parameter is the continuous order measure alloy studies report alongside
them.  For solute species ``B`` at concentration ``c_B`` and neighbour shell
``s``,

.. math::
    \\alpha_s = 1 - \\frac{p_s^{AB}}{c_B},

where ``p_s^{AB}`` is the probability that a shell-``s`` neighbour of a
``B`` atom is *not* ``B``... conventions vary; here we use the common
``B``-centred form with ``p_s`` the conditional probability that a shell-s
neighbour of a B atom is also B:

.. math::
    \\alpha_s = \\frac{p_s - c_B}{1 - c_B}.

``alpha = 0`` for an ideal random solution, ``alpha > 0`` for clustering
(Cu precipitation drives it positive), ``alpha < 0`` for ordering.
Vacant neighbour sites are excluded from the statistics.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..constants import CU
from ..lattice.occupancy import LatticeState

__all__ = ["warren_cowley"]


def warren_cowley(
    lattice: LatticeState,
    rcut: float,
    species: int = CU,
) -> Dict[int, float]:
    """Warren-Cowley parameters per neighbour shell for one species.

    Returns ``{shell_index: alpha}``; shells with no countable neighbours
    (possible only in degenerate configurations) are omitted.  The lattice's
    own ``vacancy_code`` is excluded, so multicomponent systems work too.
    """
    shells = lattice.geometry.shells_within(rcut)
    centers = lattice.sites_of_species(species)
    occupancy = lattice.occupancy
    n_atoms = int(np.sum(occupancy != lattice.vacancy_code))
    n_species = centers.size
    if n_species == 0 or n_atoms == 0:
        return {}
    concentration = n_species / n_atoms

    half = lattice.half_coords(centers)
    neighbor_ids = lattice.ids_from_half(
        half[:, None, :] + shells.offsets[None, :, :]
    )
    neighbor_types = occupancy[neighbor_ids]  # (n_centers, n_local)

    out: Dict[int, float] = {}
    for s in range(shells.n_shells):
        cols = shells.shell_index == s
        types = neighbor_types[:, cols]
        countable = types != lattice.vacancy_code
        total = int(np.sum(countable))
        if total == 0:
            continue
        same = int(np.sum(types == species))
        p_same = same / total
        if concentration >= 1.0:
            out[s] = 0.0
        else:
            out[s] = (p_same - concentration) / (1.0 - concentration)
    return out
