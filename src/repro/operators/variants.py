"""The Fig. 10 optimisation ladder — five operator variants, one workload.

Each variant is a cost ledger of the same NNP batch; they differ in *how*
the modeled machine executes it:

========  ============================================================
variant   execution model
========  ============================================================
base      scalar convolution loops on the CPEs, unfused bias/ReLU
          passes, scattered input reads (no DMA blocking)
matmul    conv converted to GEMM (register blocking on the scalar
          pipeline, Fig. 6a); same memory behaviour
simd      SIMD-vectorised per-layer GEMMs with blocked DMA, still one
          kernel per pass
fusion    (Conv2D + Bias + ReLU) fused per layer (Fig. 6b) — the
          SWDNN / TensorFlow FusedConv2D equivalent
bigfusion all layers merged, LDM-resident state, DMA/RMA overlapped
          (Fig. 6c-f, Algorithm 1): the NNP inference kernel,
          :class:`~repro.operators.tilegemm.TileGEMMKernel`
========  ============================================================

The paper's measured speedups over *base* are 1.23x (matmul), 16-22x (simd),
33-41x (fusion), and 131-161x (bigfusion); the cost-model constants below
(scalar blocking 1.3, GEMM efficiencies 0.30 / 0.38 / 0.7664) were chosen
once so the modeled ladder lands inside those bands, and the benchmark prints
both side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..sunway.costmodel import CostLedger
from ..sunway.spec import SW26010_PRO, SunwaySpec
from .fused import charge_layers
from .tilegemm import TileGEMMKernel

__all__ = ["OperatorVariant", "fig10_ladder", "MATMUL_BLOCKING", "SIMD_GEMM_EFF", "FUSED_GEMM_EFF"]

#: Scalar-pipeline efficiency gain of the GEMM conversion (paper: 1.23x).
MATMUL_BLOCKING = 1.3
#: Sustained SIMD fraction of per-layer *unfused* GEMM kernels.
SIMD_GEMM_EFF = 0.30
#: Sustained SIMD fraction of per-layer fused (SWDNN-style) kernels.
FUSED_GEMM_EFF = 0.38


@dataclass
class OperatorVariant:
    """One rung of the Fig. 10 ladder."""

    name: str
    #: Modeled execution time in seconds.
    modeled_time: float
    ledger: CostLedger

    def speedup_over(self, base: "OperatorVariant") -> float:
        return base.modeled_time / self.modeled_time


def fig10_ladder(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    m: int,
    spec: SunwaySpec = SW26010_PRO,
) -> List[OperatorVariant]:
    """Build all five variants for an ``m``-atom batch of the given network.

    The four per-layer rungs are charged by :func:`charge_layers` and take
    their time from ``serial_time``; the big-fusion rung is the NNP
    inference kernel, charged per Algorithm 1 and timed by
    ``overlapped_time``.
    """
    channels = [weights[0].shape[0]] + [w.shape[1] for w in weights]

    def per_layer(name: str, fused: bool, **charge) -> OperatorVariant:
        ledger = charge_layers(CostLedger(spec), m, channels, fused=fused, **charge)
        return OperatorVariant(
            name=name, modeled_time=ledger.serial_time(), ledger=ledger
        )

    kernel = TileGEMMKernel(weights, biases, spec=spec)
    bf_ledger = CostLedger(spec)
    kernel.charge(bf_ledger, m)
    return [
        per_layer("base", False, scalar=True, scattered_input=True),
        per_layer(
            "matmul", False, scalar=True, efficiency=MATMUL_BLOCKING,
            scattered_input=True,
        ),
        per_layer("simd", False, efficiency=SIMD_GEMM_EFF),
        per_layer("fusion", True, efficiency=FUSED_GEMM_EFF),
        OperatorVariant(
            name="bigfusion", modeled_time=bf_ledger.overlapped_time(),
            ledger=bf_ledger,
        ),
    ]


def ladder_speedups(variants: List[OperatorVariant]) -> dict:
    """Speedups of every variant over the base rung."""
    base = variants[0]
    return {v.name: v.speedup_over(base) for v in variants}


def paper_bands() -> dict:
    """The Fig. 10 speedup bands reported by the paper."""
    return {
        "base": (1.0, 1.0),
        "matmul": (1.2, 1.3),
        "simd": (16.0, 22.0),
        "fusion": (33.0, 41.0),
        "bigfusion": (131.0, 161.0),
    }
