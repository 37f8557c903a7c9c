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
* :meth:`DeltaRebuilder.build_entries` — the delta-aware refresh: slots
  with a snapshot re-rate only their dirty rows through
  :meth:`~repro.core.vacancy_system.VacancySystemEvaluator.evaluate_rows`;
  slots without one (fresh hops, recycled slots, post-restore) are gathered
  from scratch.  Both sets share a single concatenated potential call, so
  the per-call fixed cost is paid once per refresh, exactly as in the full
  path.  It is :meth:`~DeltaRebuilder.plan` (the row worklist), one
  ``evaluate_rows`` call and :meth:`~DeltaRebuilder.splice` (rows into
  the snapshots, then rates); a campaign runs the same two halves around
  one ``evaluate_batch_segments`` call over every replica's plan.

Bit-exactness: patched VETs are exact integer species codes (identical to a
re-gather), shell counts are exact integers in float32, and the shipped
potentials are row-invariant (``batch_row_invariant``), so splicing freshly
re-rated rows into the cached ``(B, 9, n_region)`` energy matrix reproduces
the full build's matrix bit for bit — and the shared
``batch_from_row_energies`` tail then yields bitwise-identical rates.

The drivers differ only in coordinate plumbing, which their site store
(:mod:`repro.core.loop`) supplies: ``gather(keys)`` — from-scratch VET
codes for a key subset — and the ``footprint`` the kernel's invalidation
runs.  No VET site id is stored: the stencil recomputes where a change
lands from the key and the TET.

Splicing rows is sound only for row-invariant potentials, so the rebuilder
refuses any other at construction, and so does every engine built on it.
"""

from __future__ import annotations

from typing import Hashable, NamedTuple, Sequence

import numpy as np

from .vacancy_cache import BatchEntries
from .vacancy_system import VacancySystemEvaluator

__all__ = ["DeltaRebuilder", "RefreshPlan"]


class RefreshPlan(NamedTuple):
    """One refresh's worklist, between :meth:`DeltaRebuilder.plan` and
    :meth:`DeltaRebuilder.splice`."""

    slots: np.ndarray
    #: ``(B, n_all)`` VET species codes of every slot in the batch.
    vets: np.ndarray
    vets_current: bool
    #: Batch positions of the slots holding a row-energy snapshot.
    ready_local: np.ndarray
    #: ``(P,)`` batch position and region row of every row to re-rate.
    pair_b: np.ndarray
    pair_r: np.ndarray


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
        self._r_all = np.arange(evaluator.tet.n_region, dtype=np.intp)

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
        self, keys: Sequence[Hashable], slots: np.ndarray
    ) -> BatchEntries:
        """Delta-aware batch build for the kernel's refresh.

        :meth:`plan`, one :meth:`~VacancySystemEvaluator.evaluate_rows`
        call, :meth:`splice`.  The returned :class:`BatchEntries` carries
        each slot's snapshot, so the store marks every rebuilt slot
        delta-ready for the next round.
        """
        plan = self.plan(keys, slots)
        return self.splice(
            plan,
            self.evaluator.evaluate_rows(plan.vets, plan.pair_b, plan.pair_r),
        )

    def plan(self, keys: Sequence[Hashable], slots: np.ndarray) -> RefreshPlan:
        """The row worklist of a refresh: every row of a from-scratch slot,
        only the dirty rows of a snapshot slot.

        From-scratch slots (fresh hops, recycled slots, post-restore) are
        gathered here; the rows are evaluated by the caller — the kernel's
        own :meth:`build_entries`, or a campaign's one call over many
        replicas' plans — and handed to :meth:`splice`.
        """
        cache = self.cache
        evaluator = self.evaluator
        slots = np.asarray(slots, dtype=np.int64)
        ready = cache.delta_ready[slots]
        ready_local = np.flatnonzero(ready)
        full_local = np.flatnonzero(~ready)

        if ready_local.size == 0:
            # Cold start / post-drop: every slot is a from-scratch build and
            # the slot arrays may not exist yet, so the gather IS the batch.
            vets = np.asarray(self.sites.gather(keys))
            vets_current = False
        else:
            # Mixed batch: adopt the from-scratch gathers into the slot
            # arrays, then read the whole batch back as one fancy gather —
            # the snapshot slots' rows are already current (patched in
            # place at invalidation time), so nothing is copied out only to
            # be written back by the store.
            if full_local.size:
                cache.adopt_vets(
                    slots[full_local],
                    self.sites.gather([keys[i] for i in full_local]),
                )
            vets = cache.vets_of(slots)
            vets_current = True
        if np.any(vets[:, evaluator.tet.CENTER] != evaluator.vacancy_code):
            raise ValueError("every VET centre must be a vacancy")

        pair_b = np.repeat(full_local, self._r_all.size)
        pair_r = np.tile(self._r_all, full_local.size)
        if ready_local.size:
            rb, rr = np.nonzero(cache.dirty_rows_of(slots[ready_local]))
            pair_b = np.concatenate([pair_b, ready_local[rb]])
            pair_r = np.concatenate([pair_r, rr])
        return RefreshPlan(
            slots, vets, vets_current, ready_local, pair_b, pair_r
        )

    def splice(self, plan: RefreshPlan, rows: np.ndarray) -> BatchEntries:
        """Entries of a planned refresh from its re-rated ``(P, 9)`` rows.

        The rows are scattered over the snapshot slots' cached energies,
        folded into hop energetics and turned into rates by this driver's
        own rate model.
        """
        n_states = 1 + self.evaluator.tet.N_DIRECTIONS
        if plan.ready_local.size:
            r_row_e = self.cache.row_e_of(plan.slots[plan.ready_local])
            e_dtype = r_row_e.dtype
        else:
            e_dtype = rows.dtype if rows.size else np.float64
        row_e = np.empty(
            (plan.slots.size, n_states, self._r_all.size), dtype=e_dtype
        )
        if plan.ready_local.size:
            row_e[plan.ready_local] = r_row_e
        if plan.pair_b.size:
            row_e[plan.pair_b, :, plan.pair_r] = rows

        energies = self.evaluator.batch_from_row_energies(plan.vets, row_e)
        return BatchEntries(
            vets=plan.vets,
            rates=self.rate_model.rates_batch(energies),
            row_energies=row_e,
            vets_current=plan.vets_current,
        )
