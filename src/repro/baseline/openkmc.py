"""OpenKMC-style baseline engine — the "cache all" comparator.

OpenKMC (Li et al., SC '19) follows MD conventions: it keeps per-atom
property arrays for the *whole* domain (``E_V``/``E_R`` for EAM, or per-atom
feature vectors for an NNP), a dense ``POS_ID`` lookup array, and a wide
per-site type array ``T``, and it recomputes vacancy energetics from scratch
every step.  This module reproduces that strategy faithfully enough to

* serve as the identical-trajectory comparator of Fig. 8 (same event loop,
  same RNG draws, no cache reuse), and
* account for the memory Table 1 charges to each array (``memory_report``),
  with the per-atom arrays genuinely allocated and incrementally maintained.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from ..constants import TEMPERATURE_RPV
from ..core.engine import KMCEvent, SerialAKMCBase
from ..core.tet import TripleEncoding
from ..lattice.occupancy import LatticeState
from ..potentials.base import CountsPotential, counts_from_types
from ..potentials.eam import EAMPotential
from ..potentials.tables import FeatureTable

__all__ = ["OpenKMCEngine"]


class OpenKMCEngine(SerialAKMCBase):
    """Cache-all baseline: identical dynamics, no vacancy-system reuse.

    Parameters are those of :class:`repro.core.engine.SerialAKMCBase`; the
    engine additionally allocates and maintains the OpenKMC per-atom arrays:

    * ``T``          — wide per-site type/flag array (int32),
    * ``POS_ID``     — dense coordinate-to-index lookup (int64),
    * ``E_V``/``E_R``— per-atom pair energy and electron density (float64),
      maintained incrementally for EAM potentials (paper Eq. 7), or
    * ``features``   — per-atom descriptor vectors (float32) when driving an
      NNP, the direct analogue the paper points out in Sec. 4.3.4.
    """

    use_cache = False

    def __init__(
        self,
        lattice: LatticeState,
        potential: CountsPotential,
        tet: TripleEncoding,
        temperature: float = TEMPERATURE_RPV,
        rng: Optional[np.random.Generator] = None,
        maintain_atom_arrays: bool = True,
    ) -> None:
        super().__init__(
            lattice, potential, tet, temperature=temperature, rng=rng
        )
        n = lattice.n_sites
        nx, ny, nz = lattice.shape
        self.T = lattice.occupancy.astype(np.int32)
        self.pos_id = np.arange(n, dtype=np.int64).reshape(2, nx, ny, nz)
        self.maintain_atom_arrays = bool(maintain_atom_arrays)
        self._is_eam = isinstance(potential, EAMPotential)
        if self._is_eam:
            self.E_V = np.zeros(n, dtype=np.float64)
            self.E_R = np.zeros(n, dtype=np.float64)
            self.features = None
        else:
            self.E_V = None
            self.E_R = None
            self._table = FeatureTable(tet.shell_distances)
            self.features = np.zeros(
                (n, self.evaluator.n_elements * self._table.n_dim),
                dtype=np.float32,
            )
        if self.maintain_atom_arrays:
            self.refresh_atom_arrays(range(n))

    # ------------------------------------------------------------------
    # Per-atom array maintenance (the "cache all" storage)
    # ------------------------------------------------------------------
    def _site_counts(self, sites: np.ndarray) -> np.ndarray:
        """Shell-type counts of arbitrary sites from the live lattice."""
        half = self.lattice.half_coords(sites)
        nb = self.lattice.ids_from_half(
            half[:, None, :] + self.tet.cet_offsets[None, :, :]
        )
        ntypes = self.lattice.occupancy[nb]
        return counts_from_types(
            ntypes, self.tet.cet_shell, self.tet.n_shells,
            n_elements=self.evaluator.n_elements,
        )

    def refresh_atom_arrays(self, sites: Iterable[int]) -> None:
        """Recompute the per-atom arrays for the given sites."""
        sites = np.asarray(list(sites), dtype=np.int64)
        if sites.size == 0:
            return
        counts = self._site_counts(sites)
        if self._is_eam:
            pot: EAMPotential = self.potential  # type: ignore[assignment]
            types = self.lattice.occupancy[sites]
            is_atom = types < self.evaluator.n_elements
            t = np.where(is_atom, types, 0).astype(np.int64)
            pair = np.einsum(
                "nse,nse->n",
                counts.astype(np.float64),
                pot.phi_table[:, t, :].transpose(1, 0, 2),
            )
            rho = np.einsum("nse,se->n", counts.astype(np.float64), pot.psi_table)
            self.E_V[sites] = np.where(is_atom, pair, 0.0)
            self.E_R[sites] = np.where(is_atom, rho, 0.0)
        else:
            self.features[sites] = self._table.features_from_counts(counts)

    def atom_energy_from_arrays(self, sites: np.ndarray) -> np.ndarray:
        """Per-atom energies from the stored arrays (paper Eq. 7 for EAM)."""
        sites = np.asarray(sites, dtype=np.int64)
        types = self.lattice.occupancy[sites]
        is_atom = types < self.evaluator.n_elements
        t = np.where(is_atom, types, 0).astype(np.int64)
        if self._is_eam:
            pot: EAMPotential = self.potential  # type: ignore[assignment]
            e = 0.5 * self.E_V[sites] + pot.embed_F(self.E_R[sites], t)
        else:
            from ..nnp.model import NNPotential

            model: NNPotential = self.potential  # type: ignore[assignment]
            e = model._atom_energies(self.features[sites], t).astype(np.float64)
        return np.where(is_atom, e, 0.0)

    # ------------------------------------------------------------------
    # Event hook: keep the per-atom arrays and T in sync after each hop
    # ------------------------------------------------------------------
    def step(self) -> KMCEvent:
        event = super().step()
        # Per-atom array maintenance is part of this baseline's rebuild cost
        # (the very overhead the vacancy cache removes), so it is charged to
        # the same profiler phase as the cache rebuilds.
        with self.profiler.phase("rebuild"):
            self.T[event.from_site] = self.lattice.occupancy[event.from_site]
            self.T[event.to_site] = self.lattice.occupancy[event.to_site]
            if self.maintain_atom_arrays:
                affected = set()
                for site in (event.from_site, event.to_site):
                    affected.add(site)
                    affected.update(
                        int(s)
                        for s in self.lattice.neighbor_ids(
                            site, self.tet.cet_offsets
                        )
                    )
                self.refresh_atom_arrays(sorted(affected))
        return event

    # ------------------------------------------------------------------
    def memory_report(self) -> Dict[str, int]:
        """Bytes held by each OpenKMC-style array (Table 1 rows)."""
        report = {
            "lattice": int(self.lattice.occupancy.nbytes),
            "T": int(self.T.nbytes),
            "POS_ID": int(self.pos_id.nbytes),
        }
        if self._is_eam:
            report["E_V"] = int(self.E_V.nbytes)
            report["E_R"] = int(self.E_R.nbytes)
        else:
            report["features"] = int(self.features.nbytes)
        report["total"] = sum(v for k, v in report.items() if k != "total")
        return report
