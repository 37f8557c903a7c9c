"""Stencil invalidation: a change reaches exactly the VETs that hold it.

``EventKernel.invalidate_near`` finds the slots a lattice change touches
through the TET stencil: the vacancy centred at ``p - o_i`` holds site
``p`` at VET position ``i``.  The oracle here is the definition itself,
evaluated slot by slot — "this slot's VET contains ``p``", with the VET
sites of every held slot built from its key — and the property is that the
kernel's patched ``(slot, VET position)`` pairs and its fresh -> stale
transitions equal the oracle's.  The shapes are the ones the stencil's
boundary handling has to get right:

* periodic boxes smaller than the VET footprint, where one site sits at
  several VET positions of one slot;
* padded rank windows, with changed points in the outermost ghost layer;
* the same point twice in one call (ghost double-writes).

The scaling guard at the end turns "the per-event invalidation cost does
not grow with the registry" into a counted assertion: stencil hits per call
follow the local vacancy density.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.constants import CU, FE, VACANCY
from repro.core.delta import DeltaRebuilder
from repro.core.engine import TensorKMCEngine
from repro.core.kernel import EventKernel
from repro.core.loop import WindowSites
from repro.core.rates import RateModel
from repro.core.vacancy_system import VacancySystemEvaluator
from repro.lattice.domain import DomainBox, LocalWindow
from repro.lattice.occupancy import LatticeState
from repro.potentials import EAMPotential

FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _record_patches(cache):
    """Wrap ``cache.patch_vets`` to log every ``(slot, position, code)``."""
    log = []
    patch = cache.patch_vets

    def recording(slots, positions, codes):
        log.extend(
            zip(
                np.asarray(slots).tolist(),
                np.asarray(positions).tolist(),
                np.asarray(codes).tolist(),
            )
        )
        return patch(slots, positions, codes)

    cache.patch_vets = recording
    return log


def _scramble(cache, rng):
    """Some slots stale but snapshot-holding, some fresh but rate-only."""
    n = cache.n_slots
    live = cache.live[:n]
    cache.fresh[:n][live & (rng.random(n) < 0.4)] = False
    cache.delta_ready[:n][live & (rng.random(n) < 0.3)] = False


def _check_call(kernel, vet_sites_of, changed, points, code_at):
    """One ``invalidate_near(points)`` against the footprint oracle.

    ``vet_sites_of(key)`` gives a slot's ``(n_all,)`` VET site ids,
    ``changed`` the site ids of ``points`` and ``code_at(ids)`` the current
    species there.
    """
    cache = kernel.cache
    held = np.flatnonzero(cache.live & (cache.fresh | cache.delta_ready))
    want_pairs, want_stale = set(), []
    for slot in held.tolist():
        positions = np.flatnonzero(
            np.isin(vet_sites_of(kernel.key_of(slot)), changed)
        )
        if positions.size and cache.fresh[slot]:
            want_stale.append(slot)
        if cache.delta_ready[slot]:
            want_pairs.update((slot, int(p)) for p in positions)
    log = _record_patches(cache)
    fresh_before = cache.fresh.copy()
    assert kernel.invalidate_near(points) == len(want_stale)
    assert np.flatnonzero(fresh_before & ~cache.fresh).tolist() == want_stale
    got_pairs = [(slot, pos) for slot, pos, _ in log]
    assert len(got_pairs) == len(set(got_pairs))  # each pair patched once
    assert set(got_pairs) == want_pairs
    for slot, pos, code in log:
        assert code == code_at(vet_sites_of(kernel.key_of(slot))[pos])
    # The snapshots now equal a fresh gather of every delta-ready slot.
    for slot in np.flatnonzero(cache.live & cache.delta_ready).tolist():
        vet = code_at(vet_sites_of(kernel.key_of(slot)))
        assert np.array_equal(cache.vets[slot], vet), slot


# ----------------------------------------------------------------------
# Periodic serial boxes, down to the smallest box the TET admits (still
# smaller than one VET: 3 cells at r_cut 2.87, whose VET spans 11 half-units)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=["tet_small", "tet_wide"])
def tet_eam(request):
    """Both TETs: at r_cut 4.8 the footprint is smaller than the old
    invalidation ball (555 of 561 sites), at 2.87 they coincide."""
    tet = request.getfixturevalue(request.param)
    return tet, EAMPotential(tet.shell_distances)


@given(
    extra=st.tuples(*(st.integers(min_value=0, max_value=4),) * 3),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(min_value=1, max_value=4),
)
@FUZZ
def test_serial_hits_equal_footprint_oracle(tet_eam, extra, seed, rounds):
    tet, eam = tet_eam
    rng = np.random.default_rng(seed)
    lattice = LatticeState(tuple(tet.min_box_cells + n for n in extra))
    lattice.occupancy[:] = rng.choice([FE, CU], size=lattice.n_sites, p=[0.8, 0.2])
    n_vac = int(rng.integers(1, max(2, lattice.n_sites // 8)))
    vac = rng.choice(lattice.n_sites, size=n_vac, replace=False)
    lattice.place_species(vac, lattice.vacancy_code)
    engine = TensorKMCEngine(
        lattice, eam, tet, rng=np.random.default_rng(seed)
    )
    kernel, offsets = engine.kernel, tet.all_offsets
    nn = tet.nn_offsets

    def vet_sites_of(key):
        return lattice.ids_from_half(lattice.half_of(key) + offsets)

    def code_at(ids):
        return lattice.occupancy[ids]

    for _ in range(rounds):
        kernel.refresh()
        _scramble(kernel.cache, rng)
        changed = []
        # A hop, when the drawn neighbour is not a vacancy.
        slot = int(rng.choice(kernel.live_slots()))
        frm = kernel.key_of(slot)
        to = int(lattice.ids_from_half(
            np.asarray(lattice.half_of(frm)) + nn[rng.integers(8)]
        ))
        if lattice.occupancy[to] != lattice.vacancy_code:
            lattice.swap(frm, to)
            kernel.move(slot, to)
            changed += [frm, to]
        # Out-of-band writes of atoms (a ghost apply's kind of change).
        atoms = np.flatnonzero(lattice.occupancy != lattice.vacancy_code)
        flips = rng.choice(atoms, size=min(atoms.size, 3), replace=False)
        lattice.occupancy[flips] = rng.choice([FE, CU], size=flips.size)
        changed += flips.tolist()
        if not changed:
            continue
        # Repeat some points, in a shuffled order.
        changed += rng.choice(changed, size=rng.integers(0, 3)).tolist()
        rng.shuffle(changed)
        points = lattice.half_coords(np.asarray(changed, dtype=np.int64))
        _check_call(kernel, vet_sites_of, changed, points, code_at)


# ----------------------------------------------------------------------
# Padded rank windows, changes up to the outermost ghost layer
# ----------------------------------------------------------------------
def _window_kernel(window, tet, potential):
    """A rank's kernel over ``window``, wired as the sublattice driver does."""
    evaluator = VacancySystemEvaluator(tet, potential)
    sites = WindowSites(window, tet, evaluator.vacancy_code)
    keys = [tuple(h) for h in window.local_vacancy_half_coords().tolist()]
    kernel = EventKernel(
        DeltaRebuilder(evaluator, RateModel(1000.0), sites), keys=keys
    )
    return kernel, sites


@given(
    box=st.tuples(*(st.integers(min_value=1, max_value=4),) * 3),
    seed=st.integers(0, 2**32 - 1),
    rounds=st.integers(min_value=1, max_value=3),
)
@FUZZ
def test_window_hits_equal_footprint_oracle(tet_small, eam_small, box, seed, rounds):
    rng = np.random.default_rng(seed)
    window = LocalWindow(DomainBox((0, 0, 0), box), (8, 8, 8), tet_small.ghost_cells)
    occ = window.occupancy
    occ[:] = rng.choice([FE, CU, VACANCY], size=occ.shape, p=[0.75, 0.15, 0.1])
    if not window.local_vacancy_half_coords().size:
        occ[0, window.ghost, window.ghost, window.ghost] = VACANCY
    kernel, sites = _window_kernel(window, tet_small, eam_small)
    offsets = tet_small.all_offsets
    px, py, pz = window.padded_shape

    def flat(half):
        s, cell = window.site_from_half(np.asarray(half, dtype=np.int64))
        return ((s * px + cell[..., 0]) * py + cell[..., 1]) * pz + cell[..., 2]

    def vet_sites_of(key):
        return flat(np.asarray(key) + offsets)

    def code_at(ids):
        return occ.reshape(-1)[ids]

    for _ in range(rounds):
        kernel.refresh()
        _scramble(kernel.cache, rng)
        points = []
        # A hop of a local vacancy; its target may lie in the ghost layer,
        # where the driver deactivates it until the rescan.
        local = [
            s for s in kernel.live_slots()
            if window.is_local_half(np.asarray(kernel.key_of(s)))
        ]
        if local:
            slot = int(rng.choice(local))
            key = kernel.key_of(slot)
            hop = sites.hop(key, int(rng.integers(8)))
            if hop is not None:
                kernel.move(slot, hop[0])
                if not window.is_local_half(np.asarray(hop[0])):
                    kernel.deactivate(slot)
                points += [key, hop[0]]
        # Writes anywhere but on a registry key, half of them pinned to a
        # window face (the outermost ghost layer).
        keys = {kernel.key_of(s) for s in kernel.live_slots()}
        for _ in range(int(rng.integers(1, 6))):
            cell = rng.integers(0, (px, py, pz))
            if rng.random() < 0.5:
                axis = rng.integers(3)
                cell[axis] = (0, (px, py, pz)[axis] - 1)[rng.integers(2)]
            half = tuple((2 * cell + rng.integers(2)).tolist())
            if half in keys:
                continue
            window.set_species_at_half(np.asarray(half), rng.choice([FE, CU, VACANCY]))
            points.append(half)
        if not points:
            continue
        points += [points[i] for i in rng.integers(0, len(points), size=2)]
        changed = flat(np.asarray(points)).tolist()
        _check_call(kernel, vet_sites_of, changed, np.asarray(points), code_at)


# ----------------------------------------------------------------------
# Scaling guard: stencil hits per invalidation follow density, not N
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
    return engine.summary()["mean_invalidation_candidates"]


def test_invalidation_candidates_are_flat_in_registry_size(tet_small, eam_small):
    # 8x the sites and 8x the vacancies: the same density, 1/10.
    small = _mean_candidates(tet_small, eam_small, box=10, n_vacancies=200)
    large = _mean_candidates(tet_small, eam_small, box=20, n_vacancies=1600)
    assert small > 0.0
    assert abs(large - small) <= 0.2 * small, (small, large)
    # A hop's two points probe 2 * n_all centres; at density 1/10 about a
    # tenth of them hold a vacancy, plus the mover seen from both ends.
    # Twice that is the bound — nowhere near the 1600-slot registry.
    assert large <= 2 * (2 * tet_small.n_all / 10 + 2)
    assert large < 1600 / 4
