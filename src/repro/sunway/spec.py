"""Machine descriptions for the modeled operator experiments (Figs. 9-11).

We do not have the hardware, so the operator experiments run against an
explicit machine model: every kernel executes *functionally* in NumPy while
its cost is charged to a :class:`~repro.sunway.costmodel.CostLedger` under
one :class:`SunwaySpec`.  The reference instance is one SW26010-pro core
group; its parameters match the public SW26010-pro numbers and the paper's
own roofline: the paper quotes a machine balance point of 43.63 FLOPs/Byte
(Fig. 9), which pins ``peak_flops_sp / mem_bandwidth``.

Derived single-CG figures:

* 64 CPEs x ~34.9 GFLOPS (SP, SIMD) = 2.234 TFLOPS peak
* main-memory bandwidth 51.2 GB/s  -> ridge 2.234e12 / 51.2e9 = 43.63 ✓
* LDM 256 KiB per CPE, RMA ~8x main-memory bandwidth inside a CG

The other machines the paper compares against are the same description
with other numbers: a Fugaku A64FX CMG (Sec. 3.6), where each core's share
of the shared L2 plays the LDM and the L2 read bandwidth plays RMA, and the
x86 platform of Fig. 11 (one AMD EPYC 7452 running libtensorflow).

The network constants below complete the description for the scaling model
of Figs. 12-13: one CG's links to its halo neighbours and the depth-wise
cost of the per-cycle synchronisation allreduce.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "SunwaySpec",
    "SW26010_PRO",
    "FUGAKU_CMG",
    "EPYC_7452",
    "CORES_PER_CG",
    "NETWORK_BANDWIDTH",
    "MESSAGE_LATENCY",
    "ALLREDUCE_LATENCY",
    "MESSAGES_PER_CYCLE",
]


@dataclass(frozen=True)
class SunwaySpec:
    """One scheduling domain: a core group (CG) and its CPE cluster.

    The defaults describe the SW26010-pro; other machines map their cores,
    fast local store and sharing fabric onto the same fields.
    """

    #: Number of CPEs in the cluster (8 x 8 mesh).
    n_cpes: int = 64
    #: Local device memory per CPE in bytes (256 KiB).
    ldm_bytes: int = 256 * 1024
    #: Single-precision SIMD peak of one CPE (FLOP/s).
    cpe_peak_flops: float = 34.9e9
    #: Sustained fraction of peak for well-blocked fused GEMM kernels —
    #: the paper reports the big-fusion operator reaching 76.64% of peak.
    gemm_efficiency: float = 0.7664
    #: Effective scalar (non-SIMD) throughput of one CPE (FLOP/s) for a
    #: naive convolution loop (no SIMD, no FMA pairing, little ILP).
    cpe_scalar_flops: float = 0.235e9
    #: Main-memory (DMA) bandwidth shared by a CG (B/s).
    mem_bandwidth: float = 51.2e9
    #: Effective bandwidth of strided/random main-memory access from the
    #: MPE (gather-heavy code like the serial feature loop), B/s.
    mpe_random_bandwidth: float = 2.0e9
    #: Effective per-CPE bandwidth for scalar gather loops over LDM-resident
    #: tables (the fast feature operator's inner loop), B/s.
    ldm_gather_bandwidth: float = 1.875e9
    #: Aggregate RMA bandwidth between CPEs of one CG (B/s): the fabric the
    #: big-fusion operator shares its parameters over.
    rma_bandwidth: float = 400.0e9
    #: Per-DMA-transaction latency (s).
    dma_latency: float = 1.0e-6
    #: Per-RMA-transaction latency (s).
    rma_latency: float = 0.2e-6

    @property
    def peak_flops_sp(self) -> float:
        """Aggregate single-precision peak of the CPE cluster (FLOP/s)."""
        return self.n_cpes * self.cpe_peak_flops

    @property
    def ridge_point(self) -> float:
        """Roofline balance point in FLOPs/Byte (paper: 43.63)."""
        return self.peak_flops_sp / self.mem_bandwidth


#: The reference machine: one SW26010-pro core group.
SW26010_PRO = SunwaySpec()

#: Cores per core group: the MPE plus its CPE cluster (1 + 64).
CORES_PER_CG = SW26010_PRO.n_cpes + 1
#: Point-to-point network bandwidth per CG (B/s).
NETWORK_BANDWIDTH = 8.0e9
#: Point-to-point message latency (s).
MESSAGE_LATENCY = 2.0e-6
#: Per-level latency of the synchronisation allreduce (s); the tree over P
#: CGs is ``log2(P)`` levels deep.
ALLREDUCE_LATENCY = 4.0e-6
#: Neighbour messages per cycle: the 26-neighbour halo of a cubic subdomain.
MESSAGES_PER_CYCLE = 26

#: One Fugaku A64FX core-memory group (Sec. 3.6): 12 compute cores, 8 MiB
#: shared L2 (the paper quotes "8 MB for 12 computing nodes [cores]"), HBM2
#: at 256 GB/s per CMG, ~1.7 TFLOPS SP (dual 512-bit SVE FMA at 2.2 GHz).
#: The shared L2 takes the role RMA plays on the Sunway: each core's L2
#: share is its "LDM" and the L2 read bandwidth carries parameter sharing.
FUGAKU_CMG = SunwaySpec(
    n_cpes=12,
    ldm_bytes=8 * 1024 * 1024 // 12,
    cpe_peak_flops=1.69e12 / 12,
    gemm_efficiency=0.70,
    mem_bandwidth=256.0e9,
    rma_bandwidth=900.0e9,
)

#: Fig. 11's 'x86': TensorFlow's FusedConv2D on an AMD EPYC 7452, as one
#: "CPE" whose SIMD peak is TensorFlow's effective SP throughput on the
#: socket (libtensorflow_cc runs its kernels multi-threaded even from a
#: serial driver, which is how the paper's 'serial x86' is configured).
#: Gather-heavy scalar code reads at ``mpe_random_bandwidth``: large caches
#: make the EPYC far better at it than the MPE (paper Sec. 4.3.1 finds the
#: MPE ~5x slower on the feature gather).
EPYC_7452 = SunwaySpec(
    n_cpes=1,
    cpe_peak_flops=180.0e9,
    gemm_efficiency=0.65,
    mem_bandwidth=20.0e9,
    mpe_random_bandwidth=9.0e9,
)
