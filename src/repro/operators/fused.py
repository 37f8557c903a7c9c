"""Fused (Conv2D + Bias + ReLU) layer and the per-layer network executors.

``fused_layer`` merges the three element-wise passes into one kernel (paper
Fig. 6b) — bias and ReLU happen "in the registers" right after the GEMM.
``layered_forward`` executes a whole network one layer at a time, optionally
unfused; it is the SWDNN/TensorFlow-style execution whose per-layer
main-memory round trips the big-fusion operator eliminates.
``charge_layers`` is the one cost formula of that execution, shared by
``layered_forward`` and the Fig. 10 ladder.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..sunway.costmodel import CostLedger

__all__ = ["fused_layer", "charge_layers", "layered_forward"]

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


def charge_layers(
    ledger: CostLedger,
    m: int,
    channels: Sequence[int],
    *,
    fused: bool = True,
    efficiency: float = 1.0,
    scalar: bool = False,
    scattered_input: bool = False,
) -> CostLedger:
    """Charge a per-layer execution of an ``m``-row batch to ``ledger``.

    Every layer reads its input and weights from main memory and writes its
    output back (the defining property of the per-layer operators in
    Fig. 9's upper panel); unfused layers add separate read/write sweeps for
    the bias and ReLU passes.

    Parameters
    ----------
    efficiency:
        Sustained fraction of peak of the pipeline that runs the layers.
    scalar:
        Charge compute to the scalar pipeline (the Fig. 10 base rungs)
        instead of the SIMD pipes.
    scattered_input:
        Layer inputs are gathered with poor locality instead of DMA'd in
        contiguous blocks.

    Returns ``ledger`` so a fresh one can be charged in one expression.
    """
    for c_in, c_out in zip(channels[:-1], channels[1:]):
        flops = 2.0 * m * c_in * c_out + 2.0 * m * c_out  # GEMM + bias/ReLU
        if scalar:
            ledger.add_scalar(flops)
            ledger.scalar_efficiency = efficiency
        else:
            ledger.add_simd(flops)
            ledger.simd_efficiency = efficiency
        input_bytes = _F32 * m * c_in
        if scattered_input:
            ledger.add_random_access(input_bytes)
        else:
            ledger.add_dma(input_bytes, transactions=1)
        ledger.add_dma(_F32 * (c_in * c_out + c_out), transactions=1)  # weights
        ledger.add_dma(_F32 * m * c_out, transactions=1)  # output
        if not fused:
            # separate bias and ReLU sweeps: read + write each.
            ledger.add_dma(4 * _F32 * m * c_out, transactions=4)
    return ledger


def layered_forward(
    x: np.ndarray,
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    fused: bool = True,
    ledger: Optional[CostLedger] = None,
    gemm_efficiency: float = 0.38,
) -> np.ndarray:
    """Per-layer network execution with optional cost accounting.

    With ``fused=False`` the bias and ReLU passes run as separate sweeps.
    When ``ledger`` is given, the execution is charged to it by
    :func:`charge_layers` on the SIMD pipes at ``gemm_efficiency``.
    """
    if ledger is not None:
        channels = [weights[0].shape[0]] + [w.shape[1] for w in weights]
        charge_layers(
            ledger, x.shape[0], channels, fused=fused, efficiency=gemm_efficiency
        )
    h = x
    n_layers = len(weights)
    for l, (w, b) in enumerate(zip(weights, biases)):
        last = l == n_layers - 1
        if fused:
            h = fused_layer(h, w, b, last=last)
        else:
            h = h @ w
            h = h + b
            if not last:
                h = np.maximum(h, 0.0)
    return h
