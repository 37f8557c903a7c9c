"""Deterministic inputs and the environment record, built outside timing.

The potential is a fixed-seed, randomly initialised :class:`NNPotential` at
the paper's channel widths (64-128-128-128-64-1): inference cost depends on
shapes, not on trained weights, and training stays out of the timed path.
The workload ``--seed`` drives the CLI's ``--seed`` (lattice disorder and
event streams); the potential is the same model for every seed.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time
from typing import Dict

import numpy as np

__all__ = [
    "HIDDEN_CHANNELS",
    "THREADS",
    "build_potential",
    "canary_seconds",
    "child_env",
    "env_block",
]

#: Hidden + output widths of the paper's atomistic network; the input width
#: is the descriptor width (2 elements x 32 tabulated features = 64).
HIDDEN_CHANNELS = (128, 128, 128, 64, 1)

#: Weight seed and standardisation of ``benchmarks/bench_kernel_smoke.py``.
_WEIGHT_SEED = 11

#: BLAS/OpenMP threads pinned in every child: the box has 2 cores and layer
#: widths <= 128 do not thread usefully, so 1 keeps the single client the
#: only load.
THREADS = 1


def build_potential(rcut: float, directory: str) -> Dict[str, object]:
    """Write the seeded NNP ``.npz`` for ``rcut`` into ``directory``."""
    from repro.core import TripleEncoding
    from repro.nnp import ElementNetworks, NNPotential
    from repro.potentials.tables import FeatureTable

    tet = TripleEncoding(rcut=rcut)
    table = FeatureTable(tet.shell_distances)
    n_feat = 2 * table.n_dim
    nets = ElementNetworks(
        (n_feat, *HIDDEN_CHANNELS), np.random.default_rng(_WEIGHT_SEED)
    )
    model = NNPotential(table, nets, rcut=rcut)
    model.set_standardisation(
        np.full(n_feat, 0.1, dtype=np.float32),
        np.full(n_feat, 2.0, dtype=np.float32),
        np.array([-4.0, -3.5]),
        0.05,
    )
    path = os.path.join(directory, f"nnp_rcut{rcut:g}.npz")
    model.save(path)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return {
        "path": path,
        "sha256": digest,
        "feature_width": n_feat,
        "channels": [n_feat, *HIDDEN_CHANNELS],
        "tet": {k: float(v) for k, v in tet.describe().items()},
    }


def child_env(root: str) -> Dict[str, str]:
    """Environment of a measured child: defaults only, threads pinned."""
    env = dict(os.environ)
    env.pop("REPRO_BACKEND", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(THREADS)
    env["PYTHONPATH"] = os.pathsep.join((root, os.path.join(root, "src")))
    # Every child compiles the program from source, whatever the caller's
    # environment and whichever child came first, and leaves no __pycache__.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def canary_seconds() -> float:
    """Time of a fixed NumPy + Python loop (about 1 s on the bench box).

    Timed before and after a set of runs; the drift between the two says
    whether the box got noisier while the benchmark ran.  Element-wise
    NumPy only: a BLAS call would make the time depend on the parent's
    thread settings.
    """
    a = np.linspace(0.1, 0.9, 128 * 128, dtype=np.float32).reshape(128, 128)
    b = a
    acc = 0
    t0 = time.perf_counter()
    for _ in range(1600):
        for _ in range(8):
            b = b * a + a
        b = np.tanh(b)
        acc += sum(range(20000))
    elapsed = time.perf_counter() - t0
    if not (acc and np.isfinite(b).all()):
        raise RuntimeError("canary loop produced a non-finite result")
    return elapsed


def _blas_vendor() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def env_block() -> Dict[str, object]:
    """Static description of the box (load and canary are added per run)."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "executable": sys.executable,
        "numpy": np.__version__,
        "blas": _blas_vendor(),
        "threads_pinned": THREADS,
        "platform": platform.platform(),
    }
