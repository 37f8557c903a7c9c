"""Simulated SW26010-pro: machine spec, LDM budget, cost model, roofline."""

from .costmodel import CostLedger
from .ldm import LDMBudget, LDMOverflowError
from .portability import (
    FUGAKU_CMG,
    ManycoreTarget,
    MappedOperator,
    compare_targets,
    map_bigfusion,
    sunway_target,
)
from .roofline import LayerRoofline, RooflineAnalysis, analyse_network, layer_flops
from .spec import EPYC_7452, SW26010_PRO, SunwaySpec, X86Spec

__all__ = [
    "FUGAKU_CMG",
    "ManycoreTarget",
    "MappedOperator",
    "compare_targets",
    "map_bigfusion",
    "sunway_target",
    "CostLedger",
    "LDMBudget",
    "LDMOverflowError",
    "LayerRoofline",
    "RooflineAnalysis",
    "analyse_network",
    "layer_flops",
    "EPYC_7452",
    "SW26010_PRO",
    "SunwaySpec",
    "X86Spec",
]
