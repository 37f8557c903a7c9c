"""Fast feature operator — paper Sec. 3.4 and the Fig. 11 'Feature' bars.

Computing the tabulated descriptor (Eq. 6) of a vacancy system is a pure
gather/accumulate task: for each of the ``1 + N_f`` states, every region
site and every neighbour, fetch the neighbour's species and accumulate the
pre-computed TABLE row.  The program runs that encode in
:class:`~repro.core.vacancy_system.VacancySystemEvaluator`; this module is
the paper's CPE-parallel operator as a cost.  Region sites are assigned to
CPEs circularly, the NET/VET/TABLE live in LDM, and all states are produced
in one batch.  :func:`charge_features` charges that operator to a ledger
and :func:`feature_ldm_budget` checks that its buffers fit one CPE's LDM.
"""

from __future__ import annotations

import numpy as np

from ..constants import N_ELEMENTS
from ..core.tet import TripleEncoding
from ..sunway.costmodel import CostLedger
from ..sunway.ldm import LDMBudget
from ..sunway.spec import SW26010_PRO, SunwaySpec

__all__ = ["FEATURE_ENTRY_BYTES", "charge_features", "feature_ldm_budget"]

#: Effective bytes touched per (state, site, neighbour) gather entry:
#: neighbour id (int32) + species (byte) + shell (byte) + the accumulated
#: table-row traffic amortised over cache lines.  Calibration constant of the
#: feature cost model.
FEATURE_ENTRY_BYTES = 16.0

_F32 = 4


def charge_features(
    ledger: CostLedger, tet: TripleEncoding, n_dim: int
) -> CostLedger:
    """Charge the features of one vacancy system (``1 + N_f`` states) to
    ``ledger``.

    The per-CPE scalar gather over LDM-resident tables is charged as an
    equivalent-cost DMA entry, so the composition rules apply uniformly;
    the VETs in (one byte a site) and the float32 features out are real DMA.
    ``ledger.notes["gather_time"]`` records the gather.  Returns ``ledger``.
    """
    spec = ledger.spec
    n_states = 1 + tet.N_DIRECTIONS
    entries = n_states * tet.n_region * tet.n_local
    gather_time = entries * FEATURE_ENTRY_BYTES / (
        spec.n_cpes * spec.ldm_gather_bandwidth
    )
    ledger.add_dma(gather_time * spec.mem_bandwidth, transactions=0)
    ledger.add_dma(
        n_states * tet.n_all + n_states * tet.n_region * N_ELEMENTS * n_dim * _F32,
        transactions=2,
    )
    ledger.notes["gather_time"] = gather_time
    return ledger


def feature_ldm_budget(
    tet: TripleEncoding, n_dim: int, spec: SunwaySpec = SW26010_PRO
) -> LDMBudget:
    """One CPE's LDM buffers of the fast feature operator.

    The NET, a VET copy, the float32 TABLE and the CPE's block of features
    must all fit in one scratchpad — what the triple encoding makes possible
    and OpenKMC's whole-domain ``lattice`` array makes impossible (Sec. 2.4).
    Raises :class:`~repro.sunway.ldm.LDMOverflowError` when they do not.
    """
    budget = LDMBudget(spec.ldm_bytes)
    budget.alloc("NET", tet.net_ids.nbytes + tet.cet_shell.nbytes)
    budget.alloc("VET", tet.n_all)
    budget.alloc("TABLE", tet.n_shells * n_dim * _F32)
    n_states = 1 + tet.N_DIRECTIONS
    sites_per_cpe = int(np.ceil(tet.n_region / spec.n_cpes))
    budget.alloc("features", n_states * sites_per_cpe * N_ELEMENTS * n_dim * _F32)
    return budget
