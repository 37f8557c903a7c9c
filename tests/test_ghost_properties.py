"""Property-based tests of the periodic ghost-image machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constants import CU, FE, VACANCY
from repro.lattice import DomainBox, LatticeState, LocalWindow
from repro.parallel import SublatticeKMC
from repro.parallel.comm import SimCommWorld
from repro.parallel.decomposition import GridDecomposition
from repro.parallel.ghost import (
    GHOST_TAG,
    GhostExchanger,
    in_padded_box,
    window_images,
)

dims = st.integers(min_value=4, max_value=14)
ghost_widths = st.integers(min_value=0, max_value=4)


@st.composite
def window_configs(draw):
    gx = draw(dims)
    gy = draw(dims)
    gz = draw(dims)
    lo = (
        draw(st.integers(0, gx - 1)),
        draw(st.integers(0, gy - 1)),
        draw(st.integers(0, gz - 1)),
    )
    shape = (
        draw(st.integers(1, gx - 0)),
        draw(st.integers(1, gy - 0)),
        draw(st.integers(1, gz - 0)),
    )
    hi = tuple(min(l + s, g) for l, s, g in zip(lo, shape, (gx, gy, gz)))
    hi = tuple(max(h, l + 1) for l, h in zip(lo, hi))
    ghost = draw(ghost_widths)
    cell = (
        draw(st.integers(0, gx - 1)),
        draw(st.integers(0, gy - 1)),
        draw(st.integers(0, gz - 1)),
    )
    return (gx, gy, gz), lo, hi, ghost, cell


class TestWindowImages:
    @given(cfg=window_configs())
    @settings(max_examples=60, deadline=None)
    def test_images_are_exactly_the_matching_padded_cells(self, cfg):
        """window_images == brute-force enumeration over all padded cells."""
        global_shape, lo, hi, ghost, cell = cfg
        window = LocalWindow(DomainBox(lo, hi), global_shape, ghost)
        images = {tuple(r) for r in window_images(window, np.array(cell))}
        brute = set()
        px, py, pz = window.padded_shape
        for i in range(px):
            for j in range(py):
                for k in range(pz):
                    g = window.global_cell_of_padded(np.array([i, j, k]))
                    if tuple(g) == tuple(np.mod(cell, global_shape)):
                        brute.add((i, j, k))
        assert images == brute

    @given(cfg=window_configs())
    @settings(max_examples=60, deadline=None)
    def test_in_padded_box_iff_images_exist(self, cfg):
        global_shape, lo, hi, ghost, cell = cfg
        window = LocalWindow(DomainBox(lo, hi), global_shape, ghost)
        has_images = window_images(window, np.array(cell)).shape[0] > 0
        claimed = bool(
            in_padded_box(np.array([cell]), window.box, ghost, global_shape)[0]
        )
        assert has_images == claimed

    @given(cfg=window_configs())
    @settings(max_examples=40, deadline=None)
    def test_local_cells_always_have_an_image(self, cfg):
        global_shape, lo, hi, ghost, _ = cfg
        window = LocalWindow(DomainBox(lo, hi), global_shape, ghost)
        # the box's own lowest cell is always inside the window
        own = np.mod(np.array(lo), np.array(global_shape))
        assert window_images(window, own).shape[0] >= 1


@st.composite
def ghost_exchanges(draw):
    """A receiving rank and one message per source, in a drawn arrival order.

    Sites come from a small pool, so they repeat with different species
    both inside one message and across messages.  Small boxes with wide
    ghosts make windows wider than the global box (several images per
    site); a one-rank axis makes the rank send to itself.
    """
    global_shape = tuple(draw(st.integers(2, 7)) for _ in range(3))
    grid = tuple(draw(st.integers(1, min(n, 3))) for n in global_shape)
    ghost = draw(st.integers(0, 4))
    decomp = GridDecomposition(global_shape, grid)
    rank = draw(st.integers(0, decomp.n_ranks - 1))
    site = st.tuples(st.integers(0, 1), *(st.integers(0, n - 1) for n in global_shape))
    pool = draw(st.lists(site, min_size=1, max_size=6))
    sources = sorted(set(decomp.neighbors_of(rank)) | {rank})
    messages = [
        (src, draw(st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from((FE, CU, VACANCY))),
            max_size=8,
        )))
        for src in draw(st.permutations(sources))
    ]
    seed = draw(st.integers(0, 2**16))
    return decomp, ghost, rank, messages, seed


def _payload(picks):
    subs = np.array([s for (s, *_), _ in picks], dtype=np.int8)
    cells = np.array([c for (_, *c), _ in picks], dtype=np.int64).reshape(-1, 3)
    species = np.array([sp for _, sp in picks], dtype=np.uint8)
    return subs, cells, species


def _reference_apply(window, payloads):
    """The per-site loop: every image of every site, in message order."""
    written = []
    for subs, cells, species in payloads:
        for s, cell, sp in zip(subs, cells, species):
            images = window_images(window, cell)
            if images.size == 0:
                continue
            s_arr = np.full(images.shape[0], int(s), dtype=np.int64)
            half = window.half_coords(s_arr, images)
            window.set_species_at_half(half, int(sp))
            written.append(half)
    if not written:
        return np.empty((0, 3), dtype=np.int64)
    return np.concatenate(written, axis=0)


class TestApplyUpdates:
    @given(case=ghost_exchanges())
    @settings(max_examples=150, deadline=None)
    def test_matches_per_site_oracle(self, case):
        decomp, ghost, rank, messages, seed = case
        shape = decomp.global_shape
        world = SimCommWorld(decomp.n_ranks)
        window = LocalWindow(decomp.box_of_rank(rank), shape, ghost)
        window.fill_from_global(
            np.random.default_rng(seed).integers(0, 3, (2, *shape), dtype=np.uint8)
        )
        oracle = LocalWindow(window.box, shape, ghost)
        oracle.occupancy[:] = window.occupancy
        exchanger = GhostExchanger(world.comm(rank), decomp, window)
        payloads = [_payload(picks) for _, picks in messages]
        for (src, _), payload in zip(messages, payloads):
            world.comm(src).send(rank, GHOST_TAG, payload)

        written = exchanger.apply_updates()
        world.assert_drained()
        expected = _reference_apply(oracle, payloads)
        assert np.array_equal(window.occupancy, oracle.occupancy)
        assert written.dtype == expected.dtype
        assert np.array_equal(written, expected)


@pytest.mark.parametrize(
    "shape,n_ranks", [((16, 16, 16), 1), ((17, 18, 19), 2), ((16, 16, 16), 4)]
)
def test_scalar_sector_and_locality_match_arrays(tet_small, eam_small, shape, n_ranks):
    """RankState.sector_of / is_local agree with the array forms at every
    padded-window half-coordinate (local and ghost)."""
    lattice = LatticeState(shape)
    lattice.randomize_alloy(np.random.default_rng(0), 0.05, 0.003)
    sim = SublatticeKMC(lattice, eam_small, tet_small, n_ranks=n_ranks)
    for rank in sim.ranks:
        window = rank.window
        s, i, j, k = np.indices((2, *window.padded_shape)).reshape(4, -1)
        half = window.half_coords(s, np.stack([i, j, k], axis=-1))
        keys = list(map(tuple, half.tolist()))
        sectors = rank.sectors.sector_of_half(half, window.ghost)
        assert [rank.sector_of(key) for key in keys] == sectors.tolist()
        local = window.is_local_half(half)
        assert [rank.is_local(key) for key in keys] == local.tolist()
