"""Fig. 10 — the operator optimisation ladder.

Paper speedups over the scalar base version: matmul 1.23x, +SIMD 16-22x,
+(Conv2D,Bias,ReLU) fusion 33-41x, +big-fusion 131-161x.

The modeled ladder (Sunway cost model, see repro.operators.variants for the
calibration) is asserted to land inside the paper bands.  Every rung is a
cost ledger; the timed kernel is the one the program runs, the big-fusion
``TileGEMMKernel``, on the same batch.
"""

from __future__ import annotations

import numpy as np

from repro.constants import PAPER_CHANNELS
from repro.io.report import ExperimentReport
from repro.nnp import ElementNetworks
from repro.operators import TileGEMMKernel, fig10_ladder, ladder_speedups, paper_bands

M = 32 * 16 * 16


def test_fig10_ladder(experiment_reports, benchmark):
    nets = ElementNetworks(PAPER_CHANNELS, np.random.default_rng(0))
    net = nets.nets[0]
    ladder = fig10_ladder(net.weights, net.biases, M)
    speedups = ladder_speedups(ladder)
    bands = paper_bands()

    report = ExperimentReport("Fig. 10", "operator optimisation ladder (speedup over base)")
    for variant in ladder:
        lo, hi = bands[variant.name]
        paper = "1.0x" if variant.name == "base" else f"{lo:.0f}-{hi:.0f}x" if hi > 2 else f"{lo:.2f}x"
        report.add(
            f"{variant.name}",
            paper,
            f"{speedups[variant.name]:.1f}x "
            f"({variant.modeled_time * 1e3:.2f} ms modeled)",
        )
    experiment_reports(report)

    for name, (lo, hi) in bands.items():
        assert lo * 0.9 <= speedups[name] <= hi * 1.1, name

    # Timed kernel: the big-fusion NNP inference kernel.
    x = np.random.default_rng(3).standard_normal((M, 64)).astype(np.float32)
    kernel = TileGEMMKernel(net.weights, net.biases)
    out = benchmark(lambda: kernel(x))
    assert out.shape == (M, 1)
