"""XYZ export and the portability mapping (paper Sec. 3.6)."""

import io
from dataclasses import replace

import numpy as np
import pytest

from benchmarks.bench_portability import bigfusion_ledgers
from repro.constants import CU, FE, PAPER_CHANNELS, VACANCY
from repro.io.xyz import write_xyz, write_xyz_trajectory
from repro.lattice import LatticeState
from repro.nnp import ElementNetworks
from repro.operators import TileGEMMKernel, fig10_ladder
from repro.sunway import FUGAKU_CMG, SW26010_PRO, LDMOverflowError


@pytest.fixture()
def small_lattice():
    lattice = LatticeState((3, 3, 3))
    lattice.occupancy[0] = CU
    lattice.occupancy[5] = VACANCY
    return lattice


class TestXYZ:
    def test_full_snapshot(self, small_lattice):
        buf = io.StringIO()
        n = write_xyz(buf, small_lattice, time=1.5)
        lines = buf.getvalue().splitlines()
        assert n == 54
        assert lines[0] == "54"
        assert "Lattice=" in lines[1] and "Time=1.5" in lines[1]
        assert len(lines) == 56

    def test_species_filter(self, small_lattice):
        buf = io.StringIO()
        n = write_xyz(buf, small_lattice, species_filter=[CU, VACANCY])
        assert n == 2
        body = buf.getvalue().splitlines()[2:]
        symbols = {line.split()[0] for line in body}
        assert symbols == {"Cu", "X"}

    def test_exclude_vacancies(self, small_lattice):
        buf = io.StringIO()
        n = write_xyz(buf, small_lattice, include_vacancies=False)
        assert n == 53
        assert "X" not in {l.split()[0] for l in buf.getvalue().splitlines()[2:]}

    def test_positions_match_lattice(self, small_lattice):
        buf = io.StringIO()
        write_xyz(buf, small_lattice, species_filter=[CU])
        line = buf.getvalue().splitlines()[2]
        _, x, y, z = line.split()
        pos = small_lattice.positions(np.array([0]))[0]
        assert [float(x), float(y), float(z)] == pytest.approx(list(pos))

    def test_trajectory(self, tmp_path, small_lattice):
        path = str(tmp_path / "traj.xyz")
        frames = write_xyz_trajectory(
            path, [(small_lattice, 0.0), (small_lattice, 1.0)],
            species_filter=[CU],
        )
        assert frames == 2
        content = open(path).read().splitlines()
        assert content.count("1") == 2  # two frames of one Cu atom


class TestPortability:
    """Sec. 3.6: the one big-fusion kernel, charged on both machines."""

    @pytest.fixture(scope="class")
    def net(self):
        return ElementNetworks(PAPER_CHANNELS, np.random.default_rng(0)).nets[0]

    def test_bigfusion_compute_bound_on_both_targets(self, net):
        """Sec. 3.6: the data-centric design survives the port to Fugaku."""
        ledgers = bigfusion_ledgers(net.weights, net.biases, 32 * 16 * 16)
        assert set(ledgers) == {"SW26010-pro CG", "Fugaku A64FX CMG"}
        for ledger in ledgers.values():
            assert ledger.arithmetic_intensity > ledger.spec.ridge_point
            assert ledger.overlapped_time() > 0

    def test_memory_traffic_is_target_independent(self, net):
        sw, fj = bigfusion_ledgers(net.weights, net.biases, 4096).values()
        assert sw.total_bytes == fj.total_bytes  # first in + last out, always
        assert sw.arithmetic_intensity == fj.arithmetic_intensity

    def test_sunway_charge_is_fig10_bigfusion_rung(self, net):
        """Sec. 3.6 and Fig. 10 charge the same operator on the same machine."""
        m = 32 * 16 * 16
        sw = bigfusion_ledgers(net.weights, net.biases, m)["SW26010-pro CG"]
        assert sw == fig10_ladder(net.weights, net.biases, m)[-1].ledger
        assert sw.rma_bytes == 1_589_280

    def test_share_fabric_differs(self):
        assert SW26010_PRO.rma_bandwidth != FUGAKU_CMG.rma_bandwidth
        assert FUGAKU_CMG.n_cpes == 12

    def test_local_store_check(self, net):
        tiny = replace(FUGAKU_CMG, ldm_bytes=1024)
        with pytest.raises(LDMOverflowError):
            TileGEMMKernel(net.weights, net.biases, spec=tiny)

    def test_ridge_points(self):
        # HBM2 makes the Fugaku CMG far less memory-starved than a CG.
        assert FUGAKU_CMG.ridge_point < SW26010_PRO.ridge_point

    def test_fe_constant_unused_guard(self):
        assert FE == 0  # anchors the XYZ symbol table
