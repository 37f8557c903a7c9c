"""Simulated SW26010-pro: machine specs, LDM budget, cost model."""

from .costmodel import CostLedger
from .ldm import LDMBudget, LDMOverflowError
from .spec import CORES_PER_CG, EPYC_7452, FUGAKU_CMG, SW26010_PRO, SunwaySpec

__all__ = [
    "CORES_PER_CG",
    "CostLedger",
    "LDMBudget",
    "LDMOverflowError",
    "EPYC_7452",
    "FUGAKU_CMG",
    "SW26010_PRO",
    "SunwaySpec",
]
