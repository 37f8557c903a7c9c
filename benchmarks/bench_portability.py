"""Sec. 3.6 — portability of the big-fusion operator to other many-cores.

Paper claim: the data-centric design carries to other architectures; on
Fugaku the shared A64FX L2 can take the role RMA plays on the Sunway for
distributing the NNP parameters.  The Fugaku CMG is one more machine
description (each core's L2 share as its LDM, the L2 read bandwidth as its
RMA), so this bench charges the one big-fusion operator,
``TileGEMMKernel``, on both machines and reports that its defining
property — being compute-bound (arithmetic intensity above the ridge) —
survives the port.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.constants import PAPER_CHANNELS
from repro.io.report import ExperimentReport
from repro.nnp import ElementNetworks
from repro.operators import TileGEMMKernel
from repro.sunway import FUGAKU_CMG, SW26010_PRO, CostLedger

M = 32 * 16 * 16

TARGETS = {"SW26010-pro CG": SW26010_PRO, "Fugaku A64FX CMG": FUGAKU_CMG}


def bigfusion_ledgers(
    weights: Sequence[np.ndarray], biases: Sequence[np.ndarray], m: int = M
) -> Dict[str, CostLedger]:
    """The big-fusion operator's ``m``-row charge on every target."""
    ledgers = {}
    for name, spec in TARGETS.items():
        ledgers[name] = CostLedger(spec)
        TileGEMMKernel(weights, biases, spec=spec).charge(ledgers[name], m)
    return ledgers


def test_portability_mapping(experiment_reports, benchmark):
    net = ElementNetworks(PAPER_CHANNELS, np.random.default_rng(0)).nets[0]
    ledgers = benchmark(lambda: bigfusion_ledgers(net.weights, net.biases))

    report = ExperimentReport(
        "Sec. 3.6", "big-fusion operator mapped across many-core targets"
    )
    for name, ledger in ledgers.items():
        ai, ridge = ledger.arithmetic_intensity, ledger.spec.ridge_point
        report.add(
            name,
            "stays compute-bound",
            f"AI {ai:.0f} F/B vs ridge {ridge:.1f} -> "
            f"{'compute' if ai > ridge else 'memory'}-bound, "
            f"{ledger.overlapped_time() * 1e3:.3f} ms",
        )
    report.add(
        "parameter-sharing fabric",
        "RMA on Sunway, shared L2 on Fugaku",
        f"RMA {SW26010_PRO.rma_bandwidth / 1e9:.0f} GB/s vs "
        f"L2 {FUGAKU_CMG.rma_bandwidth / 1e9:.0f} GB/s",
    )
    report.add(
        "main-memory traffic",
        "architecture independent",
        f"{ledgers['SW26010-pro CG'].total_bytes / 1e6:.2f} MB on both",
    )
    experiment_reports(report)

    for ledger in ledgers.values():
        assert ledger.arithmetic_intensity > ledger.spec.ridge_point
    sw, fj = ledgers.values()
    assert sw.total_bytes == fj.total_bytes
