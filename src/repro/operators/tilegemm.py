"""The big-fusion operator (paper Sec. 3.5, Fig. 6, Algorithm 1), run as a
deterministic tiled GEMM.

float32 GEMMs dispatched straight to BLAS pick their blocking — and with it
the accumulation order of every dot product — from the *row count* of the
call, so the same atom evaluated in a batch of 1 and a batch of 1000 can
differ in the last bits.  That reassociation freedom is exactly what the
real CPE kernels do not have: the paper's big-fusion operator (Sec. 3.5)
walks fixed ``m_block x k_pane`` LDM tiles in a fixed order regardless of
how many atoms the MPE enqueued, which is why TensorKMC can batch NNP
inference *and* keep the Fig. 8 bitwise cache-equivalence.

:class:`TileGEMMKernel` reproduces that property in NumPy.  It runs the
whole network as a grid of GEMM calls over fixed tiles: every reduction
panel is padded to exactly ``k_tile`` columns, every full row block has
``m_tile`` rows, and a launch's last, partial row block is padded only to
the next multiple of ``MIN_TILE`` (8) rows; the per-panel partial products
are summed in ascending-``k`` order.  The premise is measured, not assumed:
a row's bits do not depend on how many 8-row groups share its call.  On
OpenBLAS (the build NumPy ships) every batch size from 1 to ``m_tile`` + 8,
at several offsets, in float32 and float64, matches one large call bitwise,
while padding to exactly the row count does not (a 1-row call differs).
``tests/test_tilegemm.py::TestRowPaddingPremise`` pins both the premise on
the bare BLAS and its consequence on the paper network.  So each output row
is a pure function of that row's input: bit-identical for a batch of 1, a
batch of 1000, or any permutation thereof.

The kernel runs every NNP inference and is the operator Figs. 9-11 and
Sec. 3.6 time and charge (:meth:`TileGEMMKernel.charge`).  Its tile sizes
come from the one LDM pane plan, :func:`plan_tiles`, so the modeled kernel
and the executed arithmetic agree on their blocking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..sunway.costmodel import CostLedger
from ..sunway.ldm import LDMBudget, LDMOverflowError
from ..sunway.spec import SW26010_PRO, SunwaySpec

__all__ = ["TilePlan", "plan_tiles", "TileGEMMKernel"]

_F32 = 4

#: Hard ceiling on the row-tile size.  The LDM plan can produce very large
#: ``m_block`` values for small networks; 256 rows is the paper-scale
#: ``m_block`` for the production (64, 128, ..., 1) networks.  A small
#: launch pads only to a multiple of ``MIN_TILE``, so the cap bounds no
#: host padding; it is kept because it fixes the modeled block count
#: (``n_blocks`` in :meth:`TileGEMMKernel.charge`) and with it every
#: Figs. 9-11 number.
MAX_M_TILE = 256

#: Floor for the tile sizes (a degenerate 1-row tile would devolve into the
#: per-row scalar path), and the row-padding quantum: a launch's last,
#: partial row block is padded up to a multiple of this many rows.  Padding
#: to exactly the row count would break the row-invariance premise
#: (``tests/test_tilegemm.py::TestRowPaddingPremise``).
MIN_TILE = 8


@dataclass(frozen=True)
class TilePlan:
    """Fixed blocking of the deterministic kernel.

    The plan is a pure function of the network shape and the machine spec —
    never of the batch size — which is the whole point: the accumulation
    order it induces is identical for every call (a partial row block's
    shorter call keeps it too, per the premise in the module docstring).
    """

    #: Rows per full GEMM row block; a launch's last, partial block is
    #: padded only to the next multiple of ``MIN_TILE`` rows.
    m_tile: int
    #: Reduction-panel width; every K panel is padded to exactly this.
    k_tile: int
    #: Layer widths including input and output.
    channels: Tuple[int, ...]

    def k_panels(self, k: int) -> int:
        """Number of reduction panels covering a ``k``-wide layer input."""
        return -(-k // self.k_tile)


def _pow2_floor(n: int) -> int:
    return 1 << int(np.floor(np.log2(max(n, 1))))


def plan_tiles(
    weights: Sequence[np.ndarray],
    biases: Sequence[np.ndarray],
    spec: SunwaySpec = SW26010_PRO,
) -> TilePlan:
    """The big-fusion LDM plan: fixed (m, k) tile sizes per CPE (Fig. 6d/e).

    Per CPE the kernel keeps its parameter shard (1/``n_cpes`` of the
    model), one broadcast pane for the RMA operator flow (the largest
    layer), and two double-buffered state blocks.  ``m_tile`` is the
    state-block row count that fits what remains.  ``k_tile`` is the
    reduction-panel width whose ``k_tile x c_max`` weight slab fills the
    broadcast pane — the slice of the layer the RMA flow can stage per
    panel step.  Both are
    rounded down to powers of two for clean DMA strides and clamped to
    ``[MIN_TILE, MAX_M_TILE]`` / ``[MIN_TILE, c_max]``.
    """
    if len(weights) != len(biases):
        raise ValueError("weights/biases length mismatch")
    if not weights:
        raise ValueError("need at least one layer")
    channels = tuple(
        [int(weights[0].shape[0])] + [int(w.shape[1]) for w in weights]
    )
    c_max = max(channels)
    param_bytes = sum(w.size * _F32 for w in weights) + sum(
        b.size * _F32 for b in biases
    )
    shard = int(np.ceil(param_bytes / spec.n_cpes))
    pane = max(w.size * _F32 + b.size * _F32 for w, b in zip(weights, biases))
    budget = LDMBudget(spec.ldm_bytes)
    budget.alloc("param_shard", shard)
    budget.alloc("layer_broadcast", pane)
    per_row = 2 * c_max * _F32  # two double-buffered state rows
    m_block = budget.available // per_row
    if m_block < 1:
        raise LDMOverflowError(
            f"network too large for LDM: fixed buffers take "
            f"{shard + pane} of {spec.ldm_bytes} bytes"
        )
    m_tile = min(MAX_M_TILE, max(MIN_TILE, _pow2_floor(m_block)))
    k_tile = min(
        _pow2_floor(c_max), max(MIN_TILE, _pow2_floor(pane // (_F32 * c_max)))
    )
    return TilePlan(m_tile=int(m_tile), k_tile=int(k_tile), channels=channels)


class TileGEMMKernel:
    """Whole-network fused executor over the deterministic tiled GEMM.

    This is the big-fusion operator and the execution engine behind all NNP
    inference (``ElementNetworks.forward`` and the ``NNPotential`` paths):
    each ``m_tile``-row block flows through every layer while
    "LDM-resident" (only the first input and last output cross the block
    boundary, as in Algorithm 1), with the reduction of each layer split
    into fixed ``k_tile`` panels accumulated in ascending order.

    Determinism contract
    --------------------
    The tile plan depends only on the network shape and the *canonical*
    machine spec fixed at construction — never on the batch — and a row's
    bits do not depend on how many 8-row groups share its GEMM call (the
    measured premise of the module docstring), so output row ``i`` is a
    pure function of input row ``i``: evaluating an atom alone,
    inside any batch, or at any batch position gives bit-identical energies.
    This is what lets :class:`~repro.nnp.model.NNPotential` declare
    ``batch_row_invariant = True`` and the engines take the batched miss
    path without perturbing fixed-seed trajectories or bit-exact restarts.

    Weight aliasing
    ---------------
    Full reduction panels are *views* of the live weight arrays (training
    and ``set_parameters`` update weights in place), so no cache
    invalidation is needed; only the trailing partial panel of a layer whose
    input width is not a ``k_tile`` multiple is re-padded per call.

    Parameters
    ----------
    weights, biases:
        The network layers.  The last layer's output width is unrestricted
        (the NNP uses 1).
    spec:
        Machine model the tile plan is derived from *and* costs are charged
        against.  Changing the spec changes the plan and therefore the bits;
        the NNP pins the default SW26010-pro plan for exactly that reason.
    gemm_efficiency:
        Sustained fraction of SIMD peak charged to ledgers; defaults to the
        spec's measured value.
    """

    def __init__(
        self,
        weights: Sequence[np.ndarray],
        biases: Sequence[np.ndarray],
        spec: SunwaySpec = SW26010_PRO,
        gemm_efficiency: Optional[float] = None,
        dtype: Optional[np.dtype] = None,
    ) -> None:
        if len(weights) != len(biases):
            raise ValueError("weights/biases length mismatch")
        self.weights = list(weights)
        self.biases = list(biases)
        self.spec = spec
        self.gemm_efficiency = (
            spec.gemm_efficiency if gemm_efficiency is None else gemm_efficiency
        )
        self.dtype = np.dtype(dtype if dtype is not None else weights[0].dtype)
        self.plan = plan_tiles(self.weights, self.biases, spec=spec)
        self.channels = self.plan.channels
        self.param_bytes = sum(w.nbytes for w in self.weights) + sum(
            b.nbytes for b in self.biases
        )
        self.n_k_panels = sum(self.plan.k_panels(c) for c in self.channels[:-1])

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def _layer_tiles(self, w) -> List[np.ndarray]:
        """The ``(k_tile, n)`` reduction panels of a layer weight.

        Full panels are row-slice *views* of the live (C-contiguous) weight
        array — they track in-place training updates for free and keep the
        call shape/layout fixed; only a trailing partial panel is re-padded
        (small copy, once per call).
        """
        k, kt = w.shape[0], self.plan.k_tile
        tiles: List[np.ndarray] = []
        for k0 in range(0, k, kt):
            if k0 + kt <= k:
                tiles.append(w[k0 : k0 + kt])
            else:
                pad = np.zeros((kt, w.shape[1]), dtype=self.dtype)
                pad[: k - k0] = w[k0:]
                tiles.append(pad)
        return tiles

    # ------------------------------------------------------------------
    def __call__(
        self, x: np.ndarray, ledger: Optional[CostLedger] = None
    ) -> np.ndarray:
        """Run the fused network on ``(m, c_in)`` features -> ``(m, c_out)``.

        Arithmetic is bias + ReLU fused after each tiled layer (no
        activation on the last), the layers of
        :meth:`~repro.nnp.network.AtomicNetwork.forward` but with the
        fixed-tile accumulation order described in the class docstring:
        every GEMM is ``(mb, k_tile) @ (k_tile, n)``, with ``mb = m_tile``
        for a full row block and the row count rounded up to a multiple of
        ``MIN_TILE`` for the last, partial one; the first panel's product
        starts the accumulator and later panels add in ascending-``k``
        order.  A layer
        whose width is a whole number of ``k_tile`` panels hands its
        in-place ReLU output straight to the next layer; only a narrower
        one is copied into a zero-padded panel.  The host walks the same
        per-block layer chain as Algorithm 1 — each row block runs through
        *all* layers before the next block starts, mirroring the
        LDM-resident state flow of the modeled CPE kernel.
        """
        x = np.asarray(x, dtype=self.dtype)
        m = x.shape[0]
        if x.ndim != 2 or x.shape[1] != self.channels[0]:
            raise ValueError(
                f"expected (m, {self.channels[0]}) features, got {tuple(x.shape)}"
            )
        mt, kt = self.plan.m_tile, self.plan.k_tile
        last = self.n_layers - 1
        tiles = [self._layer_tiles(w) for w in self.weights]
        out = np.empty((m, self.channels[-1]), dtype=self.dtype)
        for r0 in range(0, m, mt):
            rows = min(mt, m - r0)
            mb = -(-rows // MIN_TILE) * MIN_TILE
            # Row/column zero-padded activations: pad rows never feed back
            # into real rows (GEMM row purity) and pad columns multiply zero
            # weight rows, so both only add exact zeros to every
            # accumulation.
            hb = np.zeros(
                (mb, self.plan.k_panels(self.channels[0]) * kt),
                dtype=self.dtype,
            )
            hb[:rows, : self.channels[0]] = x[r0 : r0 + rows]
            for l, (w, b) in enumerate(zip(self.weights, self.biases)):
                n = w.shape[1]
                lt = tiles[l]
                acc = np.matmul(hb[:, :kt], lt[0])
                for i in range(1, len(lt)):
                    acc += np.matmul(hb[:, i * kt : (i + 1) * kt], lt[i])
                acc += b
                if l != last:
                    np.maximum(acc, 0.0, out=acc)
                if l == last or n % kt == 0:
                    hb = acc
                else:
                    hb = np.zeros(
                        (mb, self.plan.k_panels(n) * kt), dtype=self.dtype
                    )
                    hb[:, :n] = acc
            out[r0 : r0 + rows] = hb[:rows]
        if ledger is not None:
            self.charge(ledger, m)
        return out

    # ------------------------------------------------------------------
    def charge(self, ledger: CostLedger, m: int) -> None:
        """Charge one ``m``-row launch per Algorithm 1 (big-fusion flow).

        Each block iteration runs ``n_cpes`` state blocks of ``m_tile`` rows,
        one per CPE.  FLOPs are charged for the useful rows: the modeled CPE
        kernel's partial tiles simply run shorter loops, and the NumPy
        host's only padding (a partial block rounded up to ``MIN_TILE``
        rows, plus zero columns up to a whole ``k_tile`` panel) is not
        charged.  The charge does not depend on how the host pads, so
        every modeled Figs. 9-11 number is unchanged by it.  DMA covers the
        first input and last output, and per block iteration the RMA
        operator flow delivers the parameter set to each of the 8 CPE rows,
        one weight pane per reduction panel.
        """
        n_blocks = max(-(-m // (self.spec.n_cpes * self.plan.m_tile)), 1)
        gemm_flops = sum(
            2.0 * m * ci * co
            for ci, co in zip(self.channels[:-1], self.channels[1:])
        )
        ew_flops = sum(2.0 * m * co for co in self.channels[1:])
        ledger.add_simd(gemm_flops + ew_flops)
        ledger.simd_efficiency = self.gemm_efficiency
        ledger.add_dma(_F32 * m * self.channels[0], transactions=n_blocks)
        ledger.add_dma(_F32 * m * self.channels[-1], transactions=n_blocks)
        ledger.add_rma(
            8.0 * self.param_bytes * n_blocks,
            transactions=n_blocks * self.n_k_panels,
        )
        ledger.notes["n_blocks"] = ledger.notes.get("n_blocks", 0.0) + float(
            n_blocks
        )
        ledger.notes["m_tile"] = float(self.plan.m_tile)
        ledger.notes["k_tile"] = float(self.plan.k_tile)

    def modeled_time(self, m: int) -> float:
        """Modeled (overlapped) execution time for an ``m``-row batch."""
        ledger = CostLedger(self.spec)
        self.charge(ledger, m)
        return ledger.overlapped_time()
