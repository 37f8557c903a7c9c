"""Fig. 9 — roofline of the energy kernels.

Paper (N,H,W = 32,16,16; channels 64-128-128-128-64-1):

* per-layer AI of the original operator: 0.48 up to 21.3 (< ridge 43.63,
  memory-bound);
* big-fusion: traffic 56 MB -> 2 MB, AI 509.1 (compute-bound);
* big-fusion reaches 76.64% of single-precision peak.

Both rows come from cost ledgers: one ``charge_layers`` ledger per layer for
the original operator, and ``TileGEMMKernel.charge`` for the big-fusion
operator NNP inference runs.  Our accounting counts each layer's
in/out/weights traffic once (the paper's 56 MB convention counts additional
unfused passes), so the absolute totals differ while every qualitative
statement — which side of the ridge each operator lands on, and the
order-of-magnitude traffic collapse — reproduces.
"""

from __future__ import annotations

import numpy as np

from repro.constants import PAPER_CHANNELS
from repro.io.report import ExperimentReport
from repro.nnp import ElementNetworks
from repro.operators import TileGEMMKernel, charge_layers
from repro.sunway import SW26010_PRO, CostLedger

M = 32 * 16 * 16


def _bound(ai: float) -> str:
    """Which roof limits a kernel of arithmetic intensity ``ai``."""
    return "memory" if ai < SW26010_PRO.ridge_point else "compute"


def test_fig09_roofline(experiment_reports, benchmark):
    nets = ElementNetworks(PAPER_CHANNELS, np.random.default_rng(0))
    net = nets.nets[0]
    op = TileGEMMKernel(net.weights, net.biases)
    layers = [
        charge_layers(CostLedger(SW26010_PRO), M, pair)
        for pair in zip(PAPER_CHANNELS[:-1], PAPER_CHANNELS[1:])
    ]
    fused = CostLedger(SW26010_PRO)
    op.charge(fused, M)
    per_layer_ai = [l.arithmetic_intensity for l in layers]
    original_bytes = sum(l.total_bytes for l in layers)

    report = ExperimentReport("Fig. 9", "roofline of the energy kernels")
    report.add("machine ridge point", "43.63 F/B", f"{SW26010_PRO.ridge_point:.2f} F/B")
    report.add(
        "per-layer AI (original)",
        "0.48 - 21.3",
        f"{min(per_layer_ai):.2f} - {max(per_layer_ai):.2f}",
        "per-pass counting differs",
    )
    report.add(
        "original traffic", "56 MB", f"{original_bytes / 1e6:.1f} MB",
        "we count in+out+weights once per layer",
    )
    report.add("fused traffic", "2 MB", f"{fused.total_bytes / 1e6:.2f} MB")
    report.add("fused AI", "509.1 F/B", f"{fused.arithmetic_intensity:.1f} F/B")
    report.add("original bound", "memory", _bound(min(per_layer_ai)))
    report.add("big-fusion bound", "compute", _bound(fused.arithmetic_intensity))
    report.add("big-fusion peak fraction", "76.64%", "76.64%", "adopted as model constant")
    experiment_reports(report)

    assert _bound(min(per_layer_ai)) == "memory"
    assert _bound(fused.arithmetic_intensity) == "compute"
    assert original_bytes / fused.total_bytes > 10.0

    # Timed kernel: the big-fusion operator NNP inference runs, on the
    # Fig. 9 batch.
    x = np.random.default_rng(1).standard_normal((M, 64)).astype(np.float32)
    out = benchmark(lambda: op(x))
    assert out.shape == (M, 1)
