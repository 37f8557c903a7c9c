"""Sunway operators: the big-fusion NNP inference kernel and the cost
formulas of the per-layer, feature and Fig. 10 ladder operators."""

from .feature_op import FEATURE_ENTRY_BYTES, charge_features, feature_ldm_budget
from .fused import charge_layers
from .tilegemm import TileGEMMKernel, TilePlan, plan_tiles
from .variants import (
    FUSED_GEMM_EFF,
    MATMUL_BLOCKING,
    SIMD_GEMM_EFF,
    OperatorVariant,
    fig10_ladder,
    ladder_speedups,
    paper_bands,
)

__all__ = [
    "FEATURE_ENTRY_BYTES",
    "charge_features",
    "feature_ldm_budget",
    "charge_layers",
    "TileGEMMKernel",
    "TilePlan",
    "plan_tiles",
    "FUSED_GEMM_EFF",
    "MATMUL_BLOCKING",
    "SIMD_GEMM_EFF",
    "OperatorVariant",
    "fig10_ladder",
    "ladder_speedups",
    "paper_bands",
]
