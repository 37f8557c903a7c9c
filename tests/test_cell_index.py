"""Cell-narrowed invalidation: same hits as the all-centres query, flat in N.

``EventKernel.invalidate_near`` narrows the registry through the cell index
before it runs the exact distance test.  The narrowing is only admissible
if it never changes the result, so the reference here is the query it
replaced — the same float expression broadcast against *every* held centre
— and the property is equality of the hit slots, in order, over random
boxes and random registry histories.  ``check_index()`` is the
postcondition of every mutation.  The scaling guard at the end turns "the
per-event invalidation cost does not grow with the registry" into a counted
assertion instead of a stopwatch reading.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import TensorKMCEngine
from repro.core.kernel import EventKernel, SpatialHashIndex
from repro.lattice.occupancy import LatticeState


def _brute_hits(kernel, points, held_mask):
    """Held slots within the threshold of any point: every centre tested."""
    held = np.flatnonzero(held_mask)
    if kernel.periodic is not None:
        points = np.mod(points, kernel.periodic)
    pts = points.astype(np.float64)
    centres = kernel.cache.centres[held].astype(np.float64)
    delta = pts[:, None, :] - centres[None, :, :]
    if kernel.periodic is not None:
        span = kernel.periodic.astype(np.float64)
        delta = delta - span * np.round(delta / span)
    delta = delta * kernel.scale
    dist = np.sqrt(np.sum(delta * delta, axis=-1))
    return held[np.any(dist <= kernel.threshold + 1e-9, axis=0)]


class _ConstantRates:
    """A stub miss path: every vacancy rates 0.5 per direction, and every
    snapshot patch is recorded."""

    def __init__(self):
        self.patched = []

    def build_entries(self, keys, slots):
        return np.full((len(keys), 8), 0.5)

    def patch_entries(self, slots, points):
        self.patched.append(slots.tolist())


coord = st.integers(min_value=-40, max_value=70)
point3 = st.tuples(coord, coord, coord)

ops_strategy = st.lists(
    st.one_of(
        st.tuples(st.just("add"), point3),
        st.tuples(st.just("remove"), st.integers(0, 10**6)),
        st.tuples(st.just("move"), st.integers(0, 10**6), point3),
        st.tuples(st.just("set_keys"), st.lists(point3, max_size=12)),
        st.tuples(
            st.just("invalidate"),
            st.lists(point3, min_size=1, max_size=3),
            st.integers(0, 2**16),
        ),
    ),
    max_size=30,
)


@given(
    # Half-dims from one cell (< the reach) up to several, mostly not
    # multiples of the reach; None = an open padded window, where negative
    # coordinates are ordinary positions.
    periodic=st.one_of(
        st.none(),
        st.tuples(*(st.integers(min_value=1, max_value=30),) * 3),
    ),
    threshold=st.floats(min_value=0.5, max_value=7.0),
    scale=st.sampled_from([1.0, 1.435]),
    # Registry sizes on both sides of 27 slots per query point: below that
    # the index hands back every slot instead of probing cells.  (Drawn
    # from a seed: hypothesis rarely builds a 100-element list on its own.)
    n_initial=st.integers(min_value=0, max_value=160),
    registry_seed=st.integers(0, 2**16),
    ops=ops_strategy,
)
@settings(max_examples=200, deadline=None)
def test_narrowed_hits_equal_all_centres_query(
    periodic, threshold, scale, n_initial, registry_seed, ops
):
    drawn = np.random.default_rng(registry_seed).integers(
        -40, 71, size=(n_initial, 3)
    )
    initial = list(dict.fromkeys(tuple(p) for p in drawn.tolist()))
    # Stale-but-delta-ready slots are part of the query; the stub exposes
    # the order hits are handed on in.
    builder = _ConstantRates()
    patched = builder.patched
    kernel = EventKernel(
        builder,
        lambda key: key,
        threshold=threshold, scale=scale, periodic_half=periodic,
        keys=initial,
    )
    assert kernel.check_index() == []
    cache = kernel.cache
    for op in ops:
        live = kernel.live_slots()
        if op[0] == "add":
            if kernel.slot_of(op[1]) is None:
                kernel.add(op[1])
        elif op[0] == "remove" and live:
            kernel.remove(live[op[1] % len(live)])
        elif op[0] == "move" and live:
            if kernel.slot_of(op[2]) is None:
                kernel.move(live[op[1] % len(live)], op[2])
        elif op[0] == "set_keys":
            keys = list(dict.fromkeys(op[1]))
            # A parked slot in the middle, as a restored registry has.
            kernel.set_keys(keys[:1] + [None] + keys[1:])
        elif op[0] == "invalidate":
            kernel.refresh()
            # Some slots stale but snapshot-holding, some plain stale.
            rng = np.random.default_rng(op[2])
            n = cache.n_slots
            stale = cache.live[:n] & (rng.random(n) < 0.4)
            cache.fresh[:n][stale] = False
            cache.delta_ready[:n] = cache.live[:n] & (rng.random(n) < 0.5)
            points = np.asarray(op[1], dtype=np.int64)
            want = _brute_hits(
                kernel, points, cache.live & (cache.fresh | cache.delta_ready)
            )
            want_fresh = want[cache.fresh[want]]
            want_patch = want[cache.delta_ready[want]].tolist()
            fresh_before = cache.fresh.copy()
            del patched[:]
            count = kernel.invalidate_near(points)
            assert count == want_fresh.size
            went_stale = np.flatnonzero(fresh_before & ~cache.fresh)
            assert went_stale.tolist() == want_fresh.tolist()
            assert patched == ([want_patch] if want_patch else [])
        assert kernel.check_index() == []


def test_check_index_reports_each_kind_of_damage():
    kernel = EventKernel(
        _ConstantRates(), lambda key: key,
        threshold=3.0, periodic_half=(16, 16, 16),
        keys=[(0, 0, 0), (8, 8, 8), (5, 5, 5)],
    )
    assert kernel.check_index() == []
    kernel.cache.centres[0] = (9, 9, 9)  # centre moved behind the index
    assert any("slot 0" in p for p in kernel.check_index())
    kernel.cache.centres[0] = (0, 0, 0)
    kernel.cache.remove_slot(2)  # parked behind the index
    assert any("parked slot 2" in p for p in kernel.check_index())


def test_open_index_uses_floor_cells_for_negative_coordinates():
    index = SpatialHashIndex(4)
    index.insert(0, (-1, -1, -1))
    index.insert(1, (-9, 0, 0))
    for slot in range(2, 30):  # far filler, so the query probes cells
        index.insert(slot, (100, 100, 4 * slot))
    assert index.cell_of(0) == (-1, -1, -1)
    assert index.candidates_near([(2, 2, 2)]) == [0]
    assert index.candidates_near([(-5, 0, 0)]) == [0, 1]


def test_index_with_few_slots_hands_back_everyone():
    index = SpatialHashIndex(4)
    for slot in range(27):
        index.insert(slot, (100 * slot, 0, 0))
    assert index.candidates_near([(0, 0, 0)]) == list(range(27))
    index.insert(27, (2700, 0, 0))
    assert index.candidates_near([(0, 0, 0)]) == [0]
    assert index.candidates_near([(0, 0, 0), (100, 0, 0)]) == list(range(28))


# ----------------------------------------------------------------------
# Scaling guard: candidates per invalidation follow density, not N
# ----------------------------------------------------------------------
def _mean_candidates(tet, potential, box, n_vacancies, steps=150):
    lattice = LatticeState((box, box, box))
    rng = np.random.default_rng(7)
    sites = rng.choice(lattice.n_sites, size=n_vacancies, replace=False)
    lattice.place_species(sites, lattice.vacancy_code)
    engine = TensorKMCEngine(
        lattice, potential, tet, temperature=1200.0,
        rng=np.random.default_rng(8),
    )
    engine.run(n_steps=steps)
    assert engine.kernel.check_index() == []
    return engine.summary()["mean_invalidation_candidates"], engine.kernel


def test_invalidation_candidates_are_flat_in_registry_size(tet_small, eam_small):
    # 8x the sites and 8x the vacancies: the same density.
    small, _ = _mean_candidates(tet_small, eam_small, box=10, n_vacancies=200)
    large, kernel = _mean_candidates(
        tet_small, eam_small, box=20, n_vacancies=1600
    )
    assert small > 0.0
    assert abs(large - small) <= 0.2 * small, (small, large)
    # Bounded by what 27 cells hold at this density (x2: a hop queries two
    # adjacent points whose cell blocks overlap but need not coincide),
    # nowhere near the 1600 slots the all-centres query visited.
    cell_sites = kernel.index.bucket ** 3 / 4.0  # BCC: 2 sites per 8 half^3
    assert large <= 2 * 27 * cell_sites * (1600 / (2 * 20**3))
    assert large < 1600 / 4
