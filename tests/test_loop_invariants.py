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
"""

import math

import numpy as np
import pytest

from repro.campaign import ReplicaCampaign, alloy_engine_factory, seed_sweep
from repro.core.engine import TensorKMCEngine
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
            assert np.array_equal(cache.row_e_of([slot])[0], scratch.T), slot
