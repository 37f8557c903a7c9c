"""Precipitation statistics, snapshots, reports."""

import numpy as np
import pytest

from repro.analysis import analyse_precipitation
from repro.constants import CU, FE
from repro.io import ExperimentReport, load_lattice, save_lattice
from repro.lattice import LatticeState


def _lattice_with_cu(sites, shape=(8, 8, 8)):
    lat = LatticeState(shape)
    lat.occupancy[:] = FE
    for s in sites:
        lat.occupancy[lat.site_id(*s)] = CU
    return lat


class TestPrecipitation:
    def test_counts_isolated_and_clusters(self):
        lat = _lattice_with_cu(
            [(0, 0, 0, 0), (1, 0, 0, 0), (0, 4, 4, 4)]  # one pair + one isolated
        )
        stats = analyse_precipitation(lat, time=1.5)
        assert stats.time == 1.5
        assert stats.isolated == 1
        assert stats.n_clusters == 1
        assert stats.max_size == 2
        assert stats.mean_size == 2.0
        assert stats.histogram == {1: 1, 2: 1}

    def test_number_density_units(self):
        lat = _lattice_with_cu([(0, 0, 0, 0), (1, 0, 0, 0)])
        stats = analyse_precipitation(lat)
        expected = 1.0 / (lat.volume * 1e-30)
        assert stats.number_density == pytest.approx(expected)

    def test_empty_lattice(self):
        stats = analyse_precipitation(LatticeState((4, 4, 4)))
        assert stats.isolated == 0 and stats.max_size == 0
        assert stats.number_density == 0.0


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        lat = LatticeState((4, 5, 6))
        lat.randomize_alloy(np.random.default_rng(0), 0.1, 0.01)
        path = str(tmp_path / "snap.npz")
        save_lattice(path, lat, time=3.25)
        loaded, t = load_lattice(path)
        assert t == 3.25
        assert loaded.shape == lat.shape
        assert np.array_equal(loaded.occupancy, lat.occupancy)
        assert loaded.a == lat.a


class TestReport:
    def test_render_alignment(self):
        rep = ExperimentReport("Fig. X", "demo")
        rep.add("speedup", "10x", "11.2x", "modeled")
        rep.add("memory", "56 MB", "31.7 MB")
        text = rep.render()
        assert "Fig. X" in text
        lines = text.splitlines()
        assert len(lines) == 4
        assert "speedup" in lines[2] and "modeled" in lines[2]
