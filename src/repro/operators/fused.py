"""Fused (Conv2D + Bias + ReLU) layer and the per-layer network executors.

``fused_layer`` merges the three element-wise passes into one kernel (paper
Fig. 6b) — bias and ReLU happen "in the registers" right after the GEMM.
``layered_forward`` executes a whole network one layer at a time, optionally
unfused; it is the SWDNN/TensorFlow-style execution whose per-layer
main-memory round trips the big-fusion operator eliminates.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..sunway.costmodel import CostLedger
from ..sunway.spec import SunwaySpec

__all__ = ["fused_layer", "layered_forward"]

_F32 = 4


def fused_layer(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, last: bool = False
) -> np.ndarray:
    """One fused (GEMM + bias + ReLU) layer; no activation on the last layer."""
    out = np.matmul(x, w)
    out += b
    if not last:
        np.maximum(out, 0.0, out=out)
    return out


def layered_forward(
    x: np.ndarray,
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    fused: bool = True,
    ledger: Optional[CostLedger] = None,
    spec: Optional[SunwaySpec] = None,
    simd: bool = True,
    gemm_efficiency: float = 0.38,
) -> np.ndarray:
    """Per-layer network execution with optional cost accounting.

    Every layer's input and output make a main-memory round trip (the
    defining property of the unfused/per-layer operators in Fig. 9's upper
    panel).  With ``fused=False`` the bias and ReLU passes are charged as
    separate read-modify-write sweeps as well.

    Parameters
    ----------
    ledger:
        If given, FLOPs and main-memory traffic are charged to it.
    simd:
        Whether compute is charged to the SIMD pipes (True) or the scalar
        pipeline (False; the Fig. 10 base variants).
    gemm_efficiency:
        Fraction of SIMD peak sustained by the per-layer GEMMs.
    """
    h = x
    n_layers = len(weights)
    for l, (w, b) in enumerate(zip(weights, biases)):
        last = l == n_layers - 1
        m, c_in = h.shape
        c_out = w.shape[1]
        if ledger is not None:
            gemm_flops = 2.0 * m * c_in * c_out
            ew_flops = 2.0 * m * c_out  # bias + relu
            if simd:
                ledger.add_simd(gemm_flops + ew_flops)
                ledger.simd_efficiency = gemm_efficiency
            else:
                ledger.add_scalar(gemm_flops + ew_flops)
            # conv pass: read input + weights, write output.
            ledger.add_dma(_F32 * (m * c_in + c_in * c_out + c_out), transactions=2)
            ledger.add_dma(_F32 * m * c_out, transactions=1)
            if not fused:
                # bias pass + relu pass: two more read/write sweeps each.
                ledger.add_dma(2 * 2 * _F32 * m * c_out, transactions=4)
        if fused:
            h = fused_layer(h, w, b, last=last)
        else:
            h = h @ w
            h = h + b
            if not last:
                h = np.maximum(h, 0.0)
    return h


def network_shapes(
    channels: Sequence[int],
) -> Tuple[List[Tuple[int, int]], int]:
    """Layer (c_in, c_out) pairs and total parameter count for a channel list."""
    pairs = list(zip(channels[:-1], channels[1:]))
    n_params = sum(ci * co + co for ci, co in pairs)
    return pairs, n_params
