"""Cost accounting for kernels on the modeled SW26010-pro.

Kernels record their resource usage in a :class:`CostLedger`; the ledger
converts the totals into a modeled execution time under two composition
rules:

* ``serial_time`` — compute and memory phases alternate (no overlap): the
  behaviour of the unoptimised per-layer operators;
* ``overlapped_time`` — DMA/RMA are hidden behind computation via double
  buffering (paper Figs. 6e/6f): time is the *maximum* of the phases plus
  the un-hideable pipeline fill.

These two rules are exactly what turns the same FLOP/byte totals into the
Fig. 10 performance ladder.  Ledgers are the only source of modeled
operator numbers: two formulas fill them for the network —
:func:`~repro.operators.fused.charge_layers` for per-layer execution and
:meth:`~repro.operators.tilegemm.TileGEMMKernel.charge` for big fusion —
and :func:`~repro.operators.feature_op.charge_features` for the feature
operator.  Figs. 9-11 and Sec. 3.6 read arithmetic intensity, traffic and
time off the result, on whichever :class:`SunwaySpec` machine they charge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from .spec import SunwaySpec

__all__ = ["CostLedger"]


@dataclass
class CostLedger:
    """Accumulated resource usage of one kernel invocation on one CG."""

    spec: SunwaySpec
    #: Floating point operations executed on the CPE cluster (SIMD path).
    simd_flops: float = 0.0
    #: Floating point operations executed scalar (no SIMD).
    scalar_flops: float = 0.0
    #: Bytes moved between main memory and LDM via DMA (contiguous).
    dma_bytes: float = 0.0
    #: Bytes accessed from main memory with poor locality (gathers).
    random_bytes: float = 0.0
    #: Bytes moved between CPEs via RMA.
    rma_bytes: float = 0.0
    #: Number of DMA / RMA transactions (latency terms).
    dma_transactions: int = 0
    rma_transactions: int = 0
    #: Effective efficiency of the SIMD compute phase (fraction of peak).
    simd_efficiency: float = 1.0
    #: Effective efficiency of the scalar pipeline (register blocking etc.).
    scalar_efficiency: float = 1.0
    #: Free-form annotations for reports.
    notes: Dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Recording helpers
    # ------------------------------------------------------------------
    def add_dma(self, nbytes: float, transactions: int = 1) -> None:
        self.dma_bytes += nbytes
        self.dma_transactions += transactions

    def add_random_access(self, nbytes: float) -> None:
        self.random_bytes += nbytes

    def add_rma(self, nbytes: float, transactions: int = 1) -> None:
        self.rma_bytes += nbytes
        self.rma_transactions += transactions

    def add_simd(self, flops: float) -> None:
        self.simd_flops += flops

    def add_scalar(self, flops: float) -> None:
        self.scalar_flops += flops

    # ------------------------------------------------------------------
    # Phase times
    # ------------------------------------------------------------------
    @property
    def compute_time(self) -> float:
        s = self.spec
        t = 0.0
        if self.simd_flops:
            t += self.simd_flops / (
                s.peak_flops_sp * max(self.simd_efficiency, 1e-9)
            )
        if self.scalar_flops:
            t += self.scalar_flops / (
                s.cpe_scalar_flops * s.n_cpes * max(self.scalar_efficiency, 1e-9)
            )
        return t

    @property
    def memory_time(self) -> float:
        s = self.spec
        return (
            self.dma_bytes / s.mem_bandwidth
            + self.random_bytes / s.mpe_random_bandwidth
            + self.dma_transactions * s.dma_latency
        )

    @property
    def rma_time(self) -> float:
        s = self.spec
        return self.rma_bytes / s.rma_bandwidth + self.rma_transactions * s.rma_latency

    @property
    def total_bytes(self) -> float:
        """All main-memory traffic (the roofline denominator)."""
        return self.dma_bytes + self.random_bytes

    @property
    def total_flops(self) -> float:
        return self.simd_flops + self.scalar_flops

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per main-memory byte."""
        return self.total_flops / self.total_bytes if self.total_bytes else float("inf")

    # ------------------------------------------------------------------
    # Composition rules
    # ------------------------------------------------------------------
    def serial_time(self) -> float:
        """Modeled time when compute and data movement do not overlap."""
        return self.compute_time + self.memory_time + self.rma_time

    def overlapped_time(self) -> float:
        """Modeled time with DMA/RMA hidden behind compute (double buffering)."""
        return max(self.compute_time, self.memory_time, self.rma_time)

