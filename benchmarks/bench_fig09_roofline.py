"""Fig. 9 — roofline analysis of the energy kernels.

Paper (N,H,W = 32,16,16; channels 64-128-128-128-64-1):

* per-layer AI of the original operator: 0.48 up to 21.3 (< ridge 43.63,
  memory-bound);
* big-fusion: traffic 56 MB -> 2 MB, AI 509.1 (compute-bound);
* big-fusion reaches 76.64% of single-precision peak.

Our accounting counts each layer's in/out/weights traffic once (the paper's
56 MB convention counts additional unfused passes), so the absolute totals
differ while every qualitative statement — which side of the ridge each
operator lands on, and the order-of-magnitude traffic collapse — reproduces.
"""

from __future__ import annotations

import numpy as np

from repro.constants import PAPER_CHANNELS
from repro.io.report import ExperimentReport
from repro.nnp import ElementNetworks
from repro.operators import TileGEMMKernel
from repro.sunway import SW26010_PRO, analyse_network

M = 32 * 16 * 16


def test_fig09_roofline(experiment_reports, benchmark):
    analysis = analyse_network(M, PAPER_CHANNELS, SW26010_PRO)

    report = ExperimentReport("Fig. 9", "roofline of the energy kernels")
    report.add("machine ridge point", "43.63 F/B", f"{SW26010_PRO.ridge_point:.2f} F/B")
    report.add(
        "per-layer AI (original)",
        "0.48 - 21.3",
        f"{min(analysis.per_layer_ai):.2f} - {max(analysis.per_layer_ai):.2f}",
        "per-pass counting differs",
    )
    report.add(
        "original traffic", "56 MB", f"{analysis.original_total_bytes / 1e6:.1f} MB",
        "we count in+out+weights once per layer",
    )
    report.add("fused traffic", "2 MB", f"{analysis.fused_bytes / 1e6:.2f} MB")
    report.add("fused AI", "509.1 F/B", f"{analysis.fused_ai:.1f} F/B")
    report.add("original bound", "memory", analysis.original_bound)
    report.add("big-fusion bound", "compute", analysis.fused_bound)
    report.add("big-fusion peak fraction", "76.64%", "76.64%", "adopted as model constant")
    experiment_reports(report)

    assert analysis.original_bound == "memory"
    assert analysis.fused_bound == "compute"
    assert analysis.original_total_bytes / analysis.fused_bytes > 10.0

    # Timed kernel: the big-fusion operator NNP inference runs, on the
    # Fig. 9 batch.
    nets = ElementNetworks(PAPER_CHANNELS, np.random.default_rng(0))
    net = nets.nets[0]
    op = TileGEMMKernel(net.weights, net.biases)
    x = np.random.default_rng(1).standard_normal((M, 64)).astype(np.float32)
    out = benchmark(lambda: op(x))
    assert out.shape == (M, 1)
