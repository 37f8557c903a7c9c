"""Incremental rebuild support — the miss pipeline as a re-rate.

The full miss path re-derives everything for every stale slot: gather
the VET codes, re-encode all ``(9, n_all)`` trial states, run the
potential over every row.  But a hop flips exactly two sites, so almost all
of that work reproduces bits the cache already holds.  This module owns the
driver-side half of the incremental rebuild path (paper Sec. 3.2's
keep-it-resident argument applied to the encoded state itself):

* :meth:`DeltaRebuilder.patch_entries` — called by the kernel's stencil
  invalidation with the exact ``(slot, VET position, current species)``
  triples a change touches: it scatter-updates the stored VET snapshots and
  accumulates which region rows went dirty (via the evaluator's
  per-position dirty-row table).
* :meth:`DeltaRebuilder.build_entries` — the plan of a refresh: slots
  with a snapshot re-rate only their dirty rows; slots without one (fresh
  hops, recycled slots, cold starts, post-restore) are gathered from
  scratch into the VET slab and re-rate every row.  One plan covers every
  registry of a :class:`~repro.core.vacancy_cache.SlotPool` being
  refreshed (a campaign's replicas), each mover gathered through its own
  registry's site store.  :func:`~repro.core.kernel.refresh_many`
  evaluates every pool's plan in one ``evaluate_batch_segments`` call (one
  plan goes straight to
  :meth:`~repro.core.vacancy_system.VacancySystemEvaluator.evaluate_rows`),
  so the per-call fixed cost is paid once per refresh.
* :meth:`DeltaRebuilder.splice` — the re-rated rows go straight into the
  pool's row-energy slab, and each slot's sums become its rates, by its
  own registry's rate model.

Bit-exactness: patched VETs are exact integer species codes (identical to a
re-gather), shell counts are exact integers in float32, and the shipped
potentials are row-invariant (``batch_row_invariant``), so splicing freshly
re-rated rows into a slot's cached ``(9, n_region)`` energy block
reproduces the full build's block bit for bit — and the shared
``batch_from_totals`` tail then yields bitwise-identical rates.

The drivers differ only in coordinate plumbing, which their site store
(:mod:`repro.core.loop`) supplies: ``gather(keys)`` — from-scratch VET
codes for a key subset — and the ``footprint`` the kernel's invalidation
runs.  No VET site id is stored: the stencil recomputes where a change
lands from the key and the TET.

Splicing rows is sound only for row-invariant potentials, so the rebuilder
refuses any other at construction, and so does every engine built on it.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .vacancy_system import VacancySystemEvaluator, miss_chunk_rows

__all__ = ["DeltaRebuilder", "RefreshPlan"]


class RefreshPlan(NamedTuple):
    """One refresh's worklist, from :meth:`DeltaRebuilder.build_entries`
    to :meth:`DeltaRebuilder.splice`."""

    #: ``(B,)`` pool slots (:class:`~repro.core.vacancy_cache.SlotPool`),
    #: member-major.
    slots: np.ndarray
    #: ``(B, n_all)`` VET species codes of every slot in the batch.
    vets: np.ndarray
    #: ``(P,)`` batch position and region row of every row to re-rate.
    pair_b: np.ndarray
    pair_r: np.ndarray
    #: The builders of the pool members planned, and the boundaries of
    #: each one's run of ``slots``: member ``i`` holds
    #: ``slots[bounds[i]:bounds[i + 1]]``.
    members: Sequence["DeltaRebuilder"]
    bounds: List[int]


class DeltaRebuilder:
    """The kernel's miss path: delta-aware refresh plus snapshot patching.

    ``sites`` is the driver's site store.  The
    :class:`~repro.core.kernel.EventKernel` taking this builder hands it its
    :class:`~repro.core.vacancy_cache.VacancyCache` as ``cache``.
    """

    def __init__(
        self, evaluator: VacancySystemEvaluator, rate_model, sites
    ) -> None:
        potential = evaluator.potential
        if not getattr(potential, "batch_row_invariant", False):
            raise ValueError(
                f"{type(potential).__name__}.batch_row_invariant is False: "
                "the engines evaluate cache misses in batches and splice "
                "re-rated rows, which needs per-row energies that do not "
                "depend on the batch"
            )
        self.cache = None
        self.evaluator = evaluator
        self.rate_model = rate_model
        self.sites = sites
        tet = evaluator.tet
        # Vacancies per splice sum: those whose rows fill one miss chunk.
        chunk = miss_chunk_rows(tet, evaluator.n_elements)
        n_rows = (1 + tet.N_DIRECTIONS) * tet.n_region
        self._sum_group = max(1, chunk // n_rows)

    # ------------------------------------------------------------------
    # Invalidation payload: scatter lattice changes into the snapshots
    # ------------------------------------------------------------------
    def patch_entries(
        self, slots: np.ndarray, positions: np.ndarray, species: np.ndarray
    ) -> None:
        """Scatter an invalidation's ``(slot, VET position, species)``
        triples into the snapshots and mark the region rows they dirty.

        The kernel hands over each pair once, with the species read after
        the change (a site written twice in one exchange lands on its final
        value).
        """
        old = self.cache.patch_vets(slots, positions, species)
        changed = np.flatnonzero(old != species)
        if changed.size:
            self.cache.or_dirty_rows(
                slots[changed],
                self.evaluator.dirty_rows_of_position[positions[changed]],
            )

    # ------------------------------------------------------------------
    # Refresh: plan the rows, re-rate them, splice them into the snapshots
    # ------------------------------------------------------------------
    def build_entries(
        self, slots: np.ndarray, members: Optional[Sequence] = None
    ) -> RefreshPlan:
        """The row worklist of a refresh of pool slots ``slots`` of
        ``members`` (the builders of the pool's kernels in
        :meth:`~repro.core.kernel.EventKernel.stale_batch` order; default:
        this builder alone): every row of a from-scratch slot, only the
        dirty rows of a snapshot slot.

        From-scratch slots (fresh hops, recycled slots, cold starts,
        post-restore) are gathered by their member's own site store
        straight into the pool's VET slab, so the whole batch is then one
        fancy read of it.  The rows are member-major and, within a member,
        every from-scratch slot's rows come before the snapshot slots'
        dirty rows, each in slot order: a plan per member, concatenated.
        They are evaluated by :func:`~repro.core.kernel.refresh_many` —
        one call over every pool's plan — and handed back to
        :meth:`splice`.
        """
        members = (self,) if members is None else members
        pool = self.cache.pool
        tet = self.evaluator.tet
        slots = np.asarray(slots, dtype=np.int64)
        ready = pool.delta_ready[slots]
        full = (~ready).nonzero()[0]
        # The plan's slot order: member-major, and within a member every
        # from-scratch slot before every snapshot slot.  One member needs
        # no member sort, which would make a small solo plan cost half as
        # much again.
        if len(members) == 1:
            bounds, cuts = [0, slots.size], [0, full.size]
            order = np.concatenate([full, ready.nonzero()[0]])
            scratch = slice(0, full.size)
        else:
            bounds = pool.bounds(slots, [builder.cache for builder in members])
            cuts = np.searchsorted(full, bounds).tolist()
            member = np.repeat(np.arange(len(members)), np.diff(bounds))
            order = np.argsort(ready + 2 * member, kind="stable")
            scratch = ~ready[order]
        if full.size:
            for builder, lo, hi in zip(members, cuts[:-1], cuts[1:]):
                if hi > lo:
                    mine = slots[full[lo:hi]]
                    cache = builder.cache
                    pool.vets[mine] = builder.sites.gather(
                        cache.keys_of(mine - cache._base)
                    )
        vets = pool.vets[slots]
        centres = vets[:, tet.CENTER]
        bad = np.flatnonzero(centres != self.evaluator.vacancy_code)
        if bad.size:
            key = pool.key_of(slots[bad[0]])
            raise ValueError(
                f"every VET centre must be a vacancy: vacancy {key!r} "
                f"holds species {int(centres[bad[0]])}"
            )

        rows = pool.dirty_rows[slots[order]]
        rows[scratch] = True
        # Not np.nonzero: its two index arrays share one buffer, so the
        # kept row indices would hold the batch positions' memory too.
        at, pair_r = np.divmod(np.flatnonzero(rows), rows.shape[1])
        return RefreshPlan(slots, vets, order[at], pair_r, members, bounds)

    def splice(self, plan: RefreshPlan, rows: np.ndarray) -> np.ndarray:
        """The ``(B, 8)`` rates of a planned refresh from its re-rated
        ``(P, 9)`` rows.

        The rows go straight into the pool's row-energy slab
        (:meth:`~repro.core.vacancy_cache.VacancyCache.store_batch`).  Each
        slot's C-contiguous ``(9, n_region)`` block is then summed in
        float64 from the slab, a miss chunk's worth of vacancies at a time
        so no copy of the whole batch's block is made, and folded into hop
        energetics.  Each member's slots are turned into rates by its own
        rate model, one ``rates_batch`` per distinct model (one for a seed
        sweep; every operation is elementwise, so batching changes no bit).
        """
        slots = plan.slots
        self.cache.store_batch(slots, plan.pair_b, plan.pair_r, rows)
        slab = self.cache.pool.row_energies
        step = self._sum_group
        totals = np.concatenate([
            np.sum(slab[slots[lo:lo + step]], axis=2, dtype=np.float64)
            for lo in range(0, slots.size, step)
        ])
        energies = self.evaluator.batch_from_totals(plan.vets, totals)
        models = list(dict.fromkeys(b.rate_model for b in plan.members))
        if len(models) == 1:
            return models[0].rates_batch(energies)
        which = np.repeat(
            [models.index(b.rate_model) for b in plan.members],
            np.diff(plan.bounds),
        )
        rates = np.empty((slots.size, self.evaluator.tet.N_DIRECTIONS))
        for i, model in enumerate(models):
            sel = np.flatnonzero(which == i)
            rates[sel] = model.rates_batch(energies.take(sel))
        return rates
