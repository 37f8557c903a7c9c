"""Cross-replica campaign: shared batched evaluation, bit-identity, swaps.

The contract under test is the strongest one the campaign makes: funneling
R replicas' stale rows into one fused ``evaluate_batch_segments`` call per
round changes *when and where* rows are evaluated but never their values,
so each replica's fixed-seed trajectory — occupancy digest, clock, and
event count — is bit-identical to running that replica solo.  Hot swaps
(completed or frozen replicas replaced by queued specs mid-campaign) must
not perturb anyone else's trajectory either.
"""

import numpy as np
import pytest

from repro.campaign import (
    ReplicaCampaign,
    ReplicaSpec,
    alloy_engine_factory,
    occupancy_digest,
    seed_sweep,
    temperature_ladder,
)
from repro.constants import VACANCY
from repro.core.engine import TensorKMCEngine
from repro.lattice import LatticeState
from repro.potentials import EAMPotential


def _factory(pot, tet, box=8):
    return alloy_engine_factory(
        box, pot, tet, cu_fraction=0.05, vacancy_fraction=0.004
    )


def _solo_reference(factory, spec):
    """(executed, time, digest) of the spec run through a lone engine."""
    engine = factory(spec)
    executed = engine.run(n_steps=spec.n_steps)
    return executed, engine.time, occupancy_digest(engine.lattice)


def _assert_matches_solo(results, factory):
    for r in results:
        executed, time, digest = _solo_reference(factory, r.spec)
        assert r.executed == executed
        assert r.time == time  # exact float equality, not approx
        assert r.digest == digest


# ----------------------------------------------------------------------
# Spec construction
# ----------------------------------------------------------------------
class TestSpecs:
    def test_seed_sweep_names_and_seeds(self):
        specs = seed_sweep([3, 9], n_steps=5, temperature=800.0)
        assert [s.name for s in specs] == ["seed3", "seed9"]
        assert [s.seed for s in specs] == [3, 9]
        assert all(s.temperature == 800.0 and s.n_steps == 5 for s in specs)

    def test_temperature_ladder_names(self):
        specs = temperature_ladder([700.0, 1100.0], n_steps=4, seed=2)
        assert [s.name for s in specs] == ["T700", "T1100"]
        assert all(s.seed == 2 for s in specs)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            ReplicaSpec(name="x", seed=0, n_steps=-1)

    def test_duplicate_names_rejected(self, tet_small, eam_small):
        specs = [ReplicaSpec("a", 0), ReplicaSpec("a", 1)]
        with pytest.raises(ValueError, match="unique"):
            ReplicaCampaign(specs, _factory(eam_small, tet_small))

    def test_unknown_mode_rejected(self, tet_small, eam_small):
        """There is one campaign loop: no mode is accepted."""
        with pytest.raises(TypeError, match="mode"):
            ReplicaCampaign(
                seed_sweep([0]), _factory(eam_small, tet_small),
                mode="sequential",
            )

    def test_bad_max_in_flight_rejected(self, tet_small, eam_small):
        with pytest.raises(ValueError, match="max_in_flight"):
            ReplicaCampaign(
                seed_sweep([0]), _factory(eam_small, tet_small),
                max_in_flight=0,
            )

    def test_empty_campaign_rejected(self, tet_small, eam_small):
        with pytest.raises(ValueError, match="at least one"):
            ReplicaCampaign([], _factory(eam_small, tet_small))


# ----------------------------------------------------------------------
# Bit-identity of shared batched evaluation
# ----------------------------------------------------------------------
class TestBitIdentity:
    def test_r8_seed_sweep_matches_solo_eam(self, tet_small, eam_small):
        factory = _factory(eam_small, tet_small)
        specs = seed_sweep(range(8), n_steps=25)
        campaign = ReplicaCampaign(specs, factory)
        results = campaign.run()
        assert len(results) == 8
        # The rows really were fused: every round with work issued exactly
        # one shared batch, and the widest batch spans several replicas'
        # cold-start rows at once.
        agg = campaign.summary()
        assert agg["shared_batches"] == agg["rounds"]
        assert agg["max_shared_batch"] > max(
            r.summary["max_batch_size"] for r in results
        )
        _assert_matches_solo(results, factory)

    def test_r8_seed_sweep_matches_solo_nnp(self, tet_small, nnp_small):
        factory = _factory(nnp_small, tet_small)
        specs = seed_sweep(range(8), n_steps=8)
        results = ReplicaCampaign(specs, factory).run()
        _assert_matches_solo(results, factory)

    def test_temperature_ladder_matches_solo(self, tet_small, eam_small):
        # Per-replica rate models: one shared energy batch, different
        # temperatures on the way to rates.
        factory = _factory(eam_small, tet_small)
        specs = temperature_ladder([600.0, 900.0, 1200.0], n_steps=15, seed=4)
        results = ReplicaCampaign(specs, factory).run()
        assert len({r.digest for r in results}) > 1  # ladder actually diverges
        _assert_matches_solo(results, factory)

    def test_nnp_temperature_ladder_matches_solo(self, tet_small, nnp_small):
        # Each replica splices its shared-call rows into its own snapshots
        # and rates them with its own RateModel.
        factory = _factory(nnp_small, tet_small)
        specs = temperature_ladder([600.0, 900.0, 1200.0], n_steps=10, seed=2)
        results = ReplicaCampaign(specs, factory).run()
        assert len({r.time for r in results}) == 3
        _assert_matches_solo(results, factory)

    def test_replicas_take_the_delta_path(self, tet_small, eam_small):
        """After its first round every live replica slot holds a delta
        snapshot, the replica's own invalidation patches it, and the
        trajectories still equal the solo runs."""
        base = _factory(eam_small, tet_small)
        checked = []
        patched = []

        def factory(spec):
            engine = base(spec)
            step = engine.step
            builder = engine.kernel.builder
            patch = builder.patch_entries

            def checked_step():
                cache = engine.kernel.cache
                assert cache.delta_ready[cache.live].all()
                checked.append(spec.name)
                return step()

            def counted_patch(slots, positions, species):
                patched.append(len(slots))
                return patch(slots, positions, species)

            engine.step = checked_step
            builder.patch_entries = counted_patch
            return engine

        specs = seed_sweep(range(3), n_steps=12)
        campaign = ReplicaCampaign(specs, factory)
        results = campaign.run()
        assert len(checked) == 3 * 12
        assert sum(patched) > 0
        # Later rounds re-rate dirty rows only: fewer pairs than whole slots.
        agg = campaign.summary()
        assert agg["shared_pairs"] < agg["shared_rows"] * tet_small.n_region
        _assert_matches_solo(results, base)

    def test_replica_summaries_carry_engine_counters(
        self, tet_small, eam_small
    ):
        factory = _factory(eam_small, tet_small)
        results = ReplicaCampaign(
            seed_sweep([0, 1], n_steps=10), factory
        ).run()
        for r in results:
            assert r.summary["steps"] == r.executed
            assert "cache_hits" in r.summary

    @pytest.mark.parametrize("pot", ["eam_small", "nnp_small"])
    def test_replica_kernel_counters_equal_solo(self, request, tet_small, pot):
        """A replica's kernel counts its work exactly like its solo run,
        key by key: the fresh slots the step's refresh finds after the
        shared call are misses, not hits.  The row-cache counters are the
        campaign-wide cache's, so they are left out."""
        base = _factory(request.getfixturevalue(pot), tet_small)
        kernels = {}

        def factory(spec):
            engine = base(spec)
            kernels[spec.name] = engine.kernel
            return engine

        specs = seed_sweep([0, 1], n_steps=50)
        ReplicaCampaign(specs, factory).run()
        for spec in specs:
            solo = base(spec)
            solo.run(n_steps=spec.n_steps)
            want = solo.kernel.counters()
            got = kernels[spec.name].counters()
            for counts in (want, got):
                for key in [k for k in counts if k.startswith("row_cache_")]:
                    del counts[key]
            assert got == want


# ----------------------------------------------------------------------
# Hot swap
# ----------------------------------------------------------------------
class TestHotSwap:
    def test_queue_deeper_than_max_in_flight(self, tet_small, eam_small):
        factory = _factory(eam_small, tet_small)
        specs = seed_sweep(range(6), n_steps=12)
        campaign = ReplicaCampaign(specs, factory, max_in_flight=2)
        results = campaign.run()
        assert campaign.admitted == 6
        # Two in flight for six specs: at least three waves of rounds.
        assert campaign.rounds >= 3 * 12
        _assert_matches_solo(results, factory)

    @pytest.mark.parametrize("max_in_flight", (None, 1))
    def test_zero_budget_replica_is_never_stepped(
        self, tet_small, eam_small, max_in_flight
    ):
        """A replica admitted with its budget spent ends as its solo
        ``run(n_steps=0)`` does: no event, clock 0, untouched occupancy."""
        factory = alloy_engine_factory(8, eam_small, tet_small, 0.05, 0.01)
        specs = [
            ReplicaSpec("zero", seed=0, n_steps=0),
            ReplicaSpec("ten", seed=1, n_steps=10),
        ]
        campaign = ReplicaCampaign(specs, factory, max_in_flight=max_in_flight)
        results = campaign.run()
        zero = results[0]
        assert (zero.executed, zero.time, zero.frozen) == (0, 0.0, False)
        assert campaign.rounds == 10
        _assert_matches_solo(results, factory)

    def test_mixed_budgets_swap_early(self, tet_small, eam_small):
        # Short-budget replicas retire early and later specs take their
        # slots mid-campaign; everyone still matches their solo run.
        factory = _factory(eam_small, tet_small)
        specs = [
            ReplicaSpec("short", seed=0, n_steps=3),
            ReplicaSpec("long", seed=1, n_steps=30),
            ReplicaSpec("late", seed=2, n_steps=10),
        ]
        campaign = ReplicaCampaign(specs, factory, max_in_flight=2)
        results = campaign.run()
        assert [r.spec.name for r in results] == ["short", "long", "late"]
        _assert_matches_solo(results, factory)


# ----------------------------------------------------------------------
# Dead replicas (NoMovesError) are results, not crashes
# ----------------------------------------------------------------------
class TestDeadReplicas:
    def test_frozen_replica_swapped_out(self, tet_small, eam_small):
        base = _factory(eam_small, tet_small)

        def factory(spec):
            if spec.name == "dead":
                lattice = LatticeState((4, 4, 4))
                lattice.occupancy[:] = VACANCY  # zero total propensity
                return TensorKMCEngine(
                    lattice, eam_small, tet_small,
                    temperature=spec.temperature,
                    rng=np.random.default_rng(spec.seed + 1),
                )
            return base(spec)

        specs = [
            ReplicaSpec("dead", seed=7, n_steps=50),
            ReplicaSpec("a", seed=0, n_steps=10),
            ReplicaSpec("b", seed=1, n_steps=10),
        ]
        campaign = ReplicaCampaign(specs, factory, max_in_flight=2)
        results = campaign.run()
        dead = results[0]
        assert dead.frozen and dead.executed == 0
        # The dead slot freed up for "b", and the survivors are untouched.
        assert campaign.admitted == 3
        _assert_matches_solo(results[1:], base)


# ----------------------------------------------------------------------
# Compatibility validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_row_variant_potential_rejected(self, tet_small):
        pot = EAMPotential(tet_small.shell_distances)
        pot.batch_row_invariant = False
        with pytest.raises(ValueError, match="batch_row_invariant"):
            ReplicaCampaign(
                seed_sweep([0], n_steps=1), _factory(pot, tet_small)
            ).run()
        # The engine itself refuses it: there is no solo fallback either.
        with pytest.raises(ValueError, match="batch_row_invariant"):
            _factory(pot, tet_small)(ReplicaSpec("solo", 0, n_steps=3))

    def test_batch_incompatible_replica_rejected(self, tet_small, eam_small):
        other_pot = EAMPotential(tet_small.shell_distances)
        base = _factory(eam_small, tet_small)
        swap = _factory(other_pot, tet_small)

        def factory(spec):
            return swap(spec) if spec.name == "seed1" else base(spec)

        with pytest.raises(ValueError, match="batch-compatible"):
            ReplicaCampaign(seed_sweep([0, 1], n_steps=2), factory).run()
