"""The per-layer network execution as a cost (paper Figs. 9 and 10).

``charge_layers`` charges the SWDNN/TensorFlow-style execution of a network
one layer at a time, optionally with the bias and ReLU passes unfused: the
per-layer main-memory round trips the big-fusion operator
(:class:`~repro.operators.tilegemm.TileGEMMKernel`) eliminates.  It is the
one cost formula of Fig. 9's per-layer operators, the four per-layer rungs
of the Fig. 10 ladder and Fig. 11's SW energy bar.
"""

from __future__ import annotations

from typing import Sequence

from ..sunway.costmodel import CostLedger

__all__ = ["charge_layers"]

_F32 = 4


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
