"""The big-fusion operator — paper Sec. 3.5, Fig. 6, Algorithm 1.

All fused layers of the NNP are merged into one kernel.  The CPE cluster
processes the atom batch in blocks: each block is DMA'd into LDM once,
flows through *all* layers while staying resident (the RMA operator flow of
Fig. 6f supplies each layer's filters from the CPEs that own them), and only
the final layer's output returns to main memory.  Main-memory traffic is
therefore the first input plus the last output — the property that pushes
arithmetic intensity past the machine's ridge point (Fig. 9).

The implementation here executes the identical arithmetic in NumPy (verified
against the plain per-layer forward by the tests) while charging DMA/RMA/
compute to a :class:`~repro.sunway.costmodel.CostLedger` per Algorithm 1, and
enforcing the LDM budget a real CPE kernel would have to respect.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..sunway.costmodel import CostLedger
from ..sunway.ldm import LDMBudget
from ..sunway.spec import SW26010_PRO, SunwaySpec
from .fused import fused_layer

__all__ = ["BigFusionOperator"]

_F32 = 4


class BigFusionOperator:
    """Whole-network fused executor with Sunway cost accounting.

    Parameters
    ----------
    weights, biases:
        The network layers (float32).  At most ``max_layers`` layers — the
        paper's implementation supports up to eight convolutional layers with
        64 CPEs per MPE (Sec. 3.5).
    spec:
        Machine model to charge against.
    gemm_efficiency:
        Sustained fraction of SIMD peak; defaults to the paper's measured
        76.64%.
    """

    MAX_LAYERS = 8

    def __init__(
        self,
        weights: Sequence[np.ndarray],
        biases: Sequence[np.ndarray],
        spec: SunwaySpec = SW26010_PRO,
        gemm_efficiency: Optional[float] = None,
    ) -> None:
        if len(weights) != len(biases):
            raise ValueError("weights/biases length mismatch")
        if len(weights) > self.MAX_LAYERS:
            raise ValueError(
                f"big-fusion supports at most {self.MAX_LAYERS} layers "
                f"(got {len(weights)}); the paper states the same limit"
            )
        self.weights = [np.asarray(w, dtype=np.float32) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float32) for b in biases]
        self.spec = spec
        self.gemm_efficiency = (
            spec.gemm_efficiency if gemm_efficiency is None else gemm_efficiency
        )
        self.channels = [self.weights[0].shape[0]] + [
            w.shape[1] for w in self.weights
        ]
        self.param_bytes = sum(w.nbytes for w in self.weights) + sum(
            b.nbytes for b in self.biases
        )
        self.c_max = max(self.channels)
        self.m_block = self._plan_ldm()

    # ------------------------------------------------------------------
    def _plan_ldm(self) -> int:
        """Pick the per-CPE block size that fits the LDM budget (Fig. 6d/e).

        Per CPE the kernel keeps: two double-buffered state blocks of
        ``m_block x c_max`` floats (DMA state flow), its owned parameter
        shard (1/n_cpes of the model), and one broadcast buffer for the
        largest single layer (RMA operator flow).
        """
        spec = self.spec
        shard = int(np.ceil(self.param_bytes / spec.n_cpes))
        largest_layer = max(
            w.nbytes + b.nbytes for w, b in zip(self.weights, self.biases)
        )
        fixed = shard + largest_layer
        budget = LDMBudget(spec.ldm_bytes)
        budget.alloc("param_shard", shard)
        budget.alloc("layer_broadcast", largest_layer)
        per_row = 2 * self.c_max * _F32  # two buffers, c_max floats per row
        m_block = budget.available // per_row
        if m_block < 1:
            from ..sunway.ldm import LDMOverflowError

            raise LDMOverflowError(
                f"network too large for LDM: fixed buffers take {fixed} of "
                f"{spec.ldm_bytes} bytes"
            )
        # Round down to a power of two for clean DMA strides.
        return 1 << int(np.floor(np.log2(m_block)))

    # ------------------------------------------------------------------
    def __call__(
        self, x: np.ndarray, ledger: Optional[CostLedger] = None
    ) -> np.ndarray:
        """Run the fused network on ``(m, c_in)`` features.

        Functionally identical to chaining :func:`fused_layer`; executed in
        ``m_block``-row blocks per CPE to mirror Algorithm 1, with costs
        charged to ``ledger`` when given.
        """
        x = np.asarray(x, dtype=np.float32)
        m = x.shape[0]
        spec = self.spec
        rows_per_iter = spec.n_cpes * self.m_block
        n_blocks = max(int(np.ceil(m / rows_per_iter)), 1)

        outputs: List[np.ndarray] = []
        n_layers = len(self.weights)
        for blk in range(n_blocks):
            lo = blk * rows_per_iter
            hi = min(m, lo + rows_per_iter)
            h = x[lo:hi]
            for l, (w, b) in enumerate(zip(self.weights, self.biases)):
                h = fused_layer(h, w, b, last=(l == n_layers - 1))
            outputs.append(h)

        if ledger is not None:
            gemm_flops = sum(
                2.0 * m * ci * co for ci, co in zip(self.channels[:-1], self.channels[1:])
            )
            ew_flops = sum(2.0 * m * co for co in self.channels[1:])
            ledger.add_simd(gemm_flops + ew_flops)
            ledger.simd_efficiency = self.gemm_efficiency
            # DMA: first layer input in, last layer output out; double
            # buffered, so the transactions pipeline with compute.
            ledger.add_dma(_F32 * m * self.channels[0], transactions=n_blocks)
            ledger.add_dma(_F32 * m * self.channels[-1], transactions=n_blocks)
            # RMA operator flow: every block iteration each of the 8 CPE rows
            # receives the full parameter set via row broadcasts.
            ledger.add_rma(
                8.0 * self.param_bytes * n_blocks,
                transactions=n_blocks * len(self.weights),
            )
            ledger.notes["n_blocks"] = float(n_blocks)
            ledger.notes["m_block"] = float(self.m_block)
        return np.concatenate(outputs, axis=0) if len(outputs) > 1 else outputs[0]

    # ------------------------------------------------------------------
    def modeled_time(self, m: int) -> float:
        """Modeled (overlapped) execution time for an ``m``-atom batch."""
        ledger = CostLedger(self.spec)
        gemm_flops = sum(
            2.0 * m * ci * co for ci, co in zip(self.channels[:-1], self.channels[1:])
        )
        ew_flops = sum(2.0 * m * co for co in self.channels[1:])
        ledger.add_simd(gemm_flops + ew_flops)
        ledger.simd_efficiency = self.gemm_efficiency
        rows_per_iter = self.spec.n_cpes * self.m_block
        n_blocks = max(int(np.ceil(m / rows_per_iter)), 1)
        ledger.add_dma(_F32 * m * (self.channels[0] + self.channels[-1]), transactions=2 * n_blocks)
        ledger.add_rma(8.0 * self.param_bytes * n_blocks, transactions=n_blocks * len(self.weights))
        return ledger.overlapped_time()
