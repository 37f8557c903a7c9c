"""Fig. 10 — the operator optimisation ladder.

Paper speedups over the scalar base version: matmul 1.23x, +SIMD 16-22x,
+(Conv2D,Bias,ReLU) fusion 33-41x, +big-fusion 131-161x.

The modeled ladder (Sunway cost model, see repro.operators.variants for the
calibration) is asserted to land inside the paper bands.  Real NumPy wall
times of the functional implementations are measured alongside — on a host
CPU the memory hierarchy differs, so only the modeled ratios are checked
against the paper.
"""

from __future__ import annotations

import time

import numpy as np

from repro.constants import PAPER_CHANNELS
from repro.io.report import ExperimentReport
from repro.nnp import ElementNetworks
from repro.operators import (
    TileGEMMKernel,
    conv1x1_loop,
    fig10_ladder,
    ladder_speedups,
    layered_forward,
    paper_bands,
)

M = 32 * 16 * 16


def _measured_times(net) -> dict:
    """Real NumPy wall times of the functional variants (host CPU)."""
    x = np.random.default_rng(2).standard_normal((M, 64)).astype(np.float32)
    out = {}
    # Loop conv is far too slow at full M: time a slice and scale linearly.
    slice_m = 64
    t0 = time.perf_counter()
    conv1x1_loop(x[:slice_m], net.weights[0])
    out["base(loop, scaled)"] = (time.perf_counter() - t0) * (M / slice_m)
    t0 = time.perf_counter()
    layered_forward(x, net.weights, net.biases, fused=False)
    out["unfused"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    layered_forward(x, net.weights, net.biases, fused=True)
    out["fused"] = time.perf_counter() - t0
    op = TileGEMMKernel(net.weights, net.biases)
    t0 = time.perf_counter()
    op(x)
    out["bigfusion"] = time.perf_counter() - t0
    return out


def test_fig10_ladder(experiment_reports, benchmark):
    nets = ElementNetworks(PAPER_CHANNELS, np.random.default_rng(0))
    net = nets.nets[0]
    ladder = fig10_ladder(net.weights, net.biases, M)
    speedups = ladder_speedups(ladder)
    bands = paper_bands()
    measured = _measured_times(net)

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
    report.add(
        "host NumPy wall times",
        "n/a",
        ", ".join(f"{k}={v * 1e3:.1f}ms" for k, v in measured.items()),
        "host memory hierarchy differs",
    )
    experiment_reports(report)

    for name, (lo, hi) in bands.items():
        assert lo * 0.9 <= speedups[name] <= hi * 1.1, name
    # Functional NumPy ladder is monotone too (loop >> matmul paths).
    assert measured["base(loop, scaled)"] > measured["unfused"]

    # Timed kernel: the fused per-layer forward (SWDNN-equivalent).
    x = np.random.default_rng(3).standard_normal((M, 64)).astype(np.float32)
    benchmark(lambda: layered_forward(x, net.weights, net.biases, fused=True))
