"""Kernel invariants of every driver that steps through the one event body.

The serial engines, the 4-rank sublattice driver and the campaign's
replicas all run :func:`repro.core.loop.kmc_event` over an
:class:`~repro.core.kernel.EventKernel`.  After some events and a refresh,
each of their kernels must hold:

* a vacancy at every live registry key — the precondition of the stencil
  invalidation, which finds a slot only through the vacancy code at its
  key;
* a propensity total equal to the exact sum of the fresh slots' totals;
* in every fresh slot, the rate row a from-scratch scalar evaluation of
  the vacancy's current environment gives, bit for bit;
* in every fresh slot, a delta snapshot whose ``(9, n_region)`` row
  energies equal a from-scratch ``evaluate_rows`` of that environment — for
  the campaign, rows spliced from the shared per-round call.

Two checks sit below the kernel: the serial store's forward stencil
gathers the sites the modular reference names, and every sampled row-cache
entry holds the energy a fresh, cache-free evaluation of its decoded row
gives, bit for bit.
"""

import math

import numpy as np
import pytest

from repro.campaign import ReplicaCampaign, alloy_engine_factory, seed_sweep
from repro.core.engine import TensorKMCEngine
from repro.core.loop import LatticeSites
from repro.core.rowcache import (
    ROW_ENTRY_BYTES,
    RowEnergyCache,
    row_code_weights,
)
from repro.lattice import LatticeState
from repro.parallel import SublatticeKMC


def _alloy(shape, seed, vacancies):
    lattice = LatticeState(shape)
    lattice.randomize_alloy(np.random.default_rng(seed), 0.05, vacancies)
    return lattice


def _serial_worlds(engine):
    lattice, offsets = engine.lattice, engine.tet.all_offsets
    return [(
        engine.kernel, engine.evaluator, engine.rate_model,
        lambda key: lattice.occupancy[lattice.neighbor_ids(key, offsets)],
    )]


def _rank_worlds(sim):
    worlds = []
    for rank in sim.ranks:
        offsets = rank.tet.all_offsets

        def vet_of(key, window=rank.window):
            return window.species_at_half(np.asarray(key) + offsets)

        worlds.append((rank.kernel, rank.evaluator, rank.rate_model, vet_of))
    return worlds


def _serial(pot):
    def run(request, tet):
        engine = TensorKMCEngine(
            _alloy((8, 8, 8), 9, 0.004), request.getfixturevalue(pot), tet,
            temperature=900.0, rng=np.random.default_rng(10),
        )
        engine.run(n_steps=40)
        return _serial_worlds(engine)

    return run


def _parallel(request, tet):
    sim = SublatticeKMC(
        _alloy((16, 16, 16), 3, 0.01), request.getfixturevalue("eam_small"),
        tet, n_ranks=4, temperature=1200.0, t_stop=1e-9, seed=5,
    )
    sim.run(8)
    assert sim.total_events > 0
    return _rank_worlds(sim)


def _campaign(request, tet):
    base = alloy_engine_factory(
        8, request.getfixturevalue("eam_small"), tet, 0.05, 0.004
    )
    engines = []

    def factory(spec):
        engines.append(base(spec))
        return engines[-1]

    ReplicaCampaign(seed_sweep(range(3), n_steps=20), factory).run()
    assert len(engines) == 3
    return [world for e in engines for world in _serial_worlds(e)]


DRIVERS = {
    "serial-eam": _serial("eam_small"),
    "serial-nnp": _serial("nnp_small"),
    "sublattice-4-ranks": _parallel,
    "campaign-3-replicas": _campaign,
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_kernel_invariants_after_events(request, tet_small, driver):
    for kernel, evaluator, rate_model, vet_of in DRIVERS[driver](
        request, tet_small
    ):
        kernel.refresh()
        centre = evaluator.tet.CENTER
        for slot in kernel.live_slots():
            key = kernel.key_of(slot)
            assert vet_of(key)[centre] == evaluator.vacancy_code, key
        cache = kernel.cache
        fresh = np.flatnonzero(cache.live & cache.fresh)
        assert fresh.size == cache.n_live
        assert kernel.total == pytest.approx(
            math.fsum(cache.total_rates[fresh]), rel=1e-12
        )
        for slot in fresh.tolist():
            scratch = rate_model.rates(
                evaluator.evaluate(vet_of(kernel.key_of(slot)))
            )
            assert np.array_equal(cache.rates[slot], scratch), slot
        # Every slot holds a delta snapshot; its row energies are those of
        # a from-scratch row evaluation, so splices never drift.
        assert cache.delta_ready[fresh].all()
        rows = np.arange(evaluator.tet.n_region)
        for slot in fresh.tolist():
            vet = vet_of(kernel.key_of(slot))
            scratch = evaluator.evaluate_rows(
                vet[None], np.zeros_like(rows), rows
            )
            assert np.array_equal(cache.row_energies[slot], scratch.T), slot


@pytest.mark.parametrize(
    "tet_name,shape", [("tet_small", (6, 7, 8)), ("tet_standard", (8, 9, 10))]
)
def test_gather_names_the_sites_of_the_modular_reference(
    request, tet_name, shape
):
    """The forward stencil's VET site ids, for every site on a box face
    and for random sites, equal ``ids_from_half`` of the key plus the TET
    offsets."""
    tet = request.getfixturevalue(tet_name)
    lattice = LatticeState(shape)
    sites = LatticeSites(lattice, tet)
    _, *cell = lattice.site_coords(np.arange(lattice.n_sites))
    on_face = np.zeros(lattice.n_sites, dtype=bool)
    for c, n in zip(cell, shape):
        on_face |= (c == 0) | (c == n - 1)
    rng = np.random.default_rng(7)
    keys = np.concatenate([
        np.flatnonzero(on_face), rng.integers(0, lattice.n_sites, 64)
    ])
    # Occupancy that reads back each site's own id.
    lattice.occupancy = np.arange(lattice.n_sites)
    reference = lattice.ids_from_half(
        lattice.half_coords(keys)[:, None, :] + tet.all_offsets
    )
    assert np.array_equal(sites.gather(keys.tolist()), reference)


def _decode_rows(codes, tet, n_elements):
    """Test-side inverse of ``row_code_weights``: ``(centres, counts)``."""
    sizes = np.bincount(np.asarray(tet.cet_shell), minlength=tet.n_shells)
    rest, digits = np.asarray(codes, dtype=np.int64), []
    for radix in (np.repeat(sizes, n_elements) + 1).tolist():
        rest, digit = np.divmod(rest, radix)
        digits.append(digit)
    return rest, np.stack(digits, axis=1)


@pytest.mark.parametrize(
    "tet_name,pot_name,shape,entries",
    [("tet_small", "nnp_small", (8, 8, 8), None),
     ("tet_standard", "nnp_standard", (12, 12, 12), None),
     # A budget far below the working set: the run flushes the cache, and
     # the entries loaded since hold fresh energies too.
     ("tet_small", "nnp_small", (8, 8, 8), 16)],
    ids=[
        "tet_small-nnp_small-shape0",
        "tet_standard-nnp_standard-shape1",
        "tet_small-nnp_small-flushed",
    ],
)
def test_cached_row_energies_re_evaluate_bitwise(
    request, tet_name, pot_name, shape, entries
):
    """A sample of live row-cache entries, decoded to (centre, shell
    counts) and evaluated in one fresh call with no cache, gives the stored
    energies bit for bit."""
    tet = request.getfixturevalue(tet_name)
    pot = request.getfixturevalue(pot_name)
    engine = TensorKMCEngine(
        _alloy(shape, 9, 0.004), pot, tet,
        temperature=900.0, rng=np.random.default_rng(10),
    )
    if entries is not None:
        engine.evaluator.attach_row_cache(
            RowEnergyCache(max_bytes=entries * ROW_ENTRY_BYTES)
        )
    engine.run(n_steps=10)
    cache = engine.row_cache
    if entries is not None:
        assert cache.evictions > 0
    codes = cache._codes[cache._codes >= 0]
    assert len(codes) == len(cache) > 0
    sample = np.random.default_rng(3).choice(
        codes, size=min(256, len(codes)), replace=False
    )
    found, cached = cache.lookup(sample)
    assert found.all()
    centres, counts = _decode_rows(sample, tet, pot.n_elements)
    weights, centre_weight = row_code_weights(tet, pot.n_elements)
    assert np.array_equal(counts @ weights + centres * centre_weight, sample)
    fresh = pot.energies_from_counts(
        centres,
        counts.reshape(len(sample), tet.n_shells, pot.n_elements)
        .astype(np.float32),
    )
    assert cached.dtype == fresh.dtype
    assert cached.tobytes() == fresh.tobytes()
