"""Sunway operator kernels: conv, fusion, big-fusion, and feature operators."""

from .conv import bias_add, conv1x1_loop, conv1x1_matmul, relu
from .feature_op import FEATURE_ENTRY_BYTES, FastFeatureOperator, features_mpe_serial
from .fused import charge_layers, fused_layer, layered_forward
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
    "bias_add",
    "conv1x1_loop",
    "conv1x1_matmul",
    "relu",
    "FEATURE_ENTRY_BYTES",
    "FastFeatureOperator",
    "features_mpe_serial",
    "charge_layers",
    "fused_layer",
    "layered_forward",
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
