"""Vacancy-system state evaluation — the per-hop energy kernel.

Given a VET (species of all ``n_all`` sites of a vacancy system) the
evaluator computes the initial-state region energy and the energy change of
each of the eight possible final states.  This mirrors the paper's fast
feature operator semantics: features for the initial state and all final
states are produced in one batch (Sec. 3.4), then pushed through the
potential (the big-fusion operator on Sunway; a :class:`CountsPotential`
here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..constants import DESCRIPTOR_N_SETS, N_ELEMENTS
from ..potentials.base import CountsPotential, counts_from_types
from .rowcache import resolve_row_cache, row_code_weights
from .tet import TripleEncoding

__all__ = [
    "MISS_CHUNK_BYTES",
    "StateEnergies",
    "StateEnergiesBatch",
    "VacancySystemEvaluator",
    "miss_chunk_rows",
    "miss_row_bytes",
    "miss_transient_bytes",
]

#: Transient-memory budget of one chunk of the miss pipeline (encode ->
#: row code -> dedup -> row-cache probe -> GEMM on misses).  Larger
#: batches are split into chunks of whole ``(vacancy, region row)`` pairs
#: (9 trial-state rows each) of at most this many bytes' worth of rows
#: (:func:`miss_chunk_rows`), so a cold refresh of every vacancy peaks at
#: one chunk, not at the whole batch.  That is 19k rows (the rows of 8
#: vacancies) at the paper's rcut 6.5 and 24k rows (45 vacancies) at
#: rcut 2.87, above any steady-state batch (~4k rows on ``serial_gemm``,
#: ~6k in a ``campaign8`` round), which is never split.
MISS_CHUNK_BYTES = 24 * 2**20


def miss_row_bytes(tet: TripleEncoding, n_elements: int = N_ELEMENTS) -> int:
    """Peak transient bytes one ``(trial state, region site)`` row costs.

    An upper bound on the miss pipeline's per-row transients with every
    row a row-cache miss, counted from the arrays ``_pair_energies``
    allocates:

    * its share (one ninth) of its pair's state-0 encode: the int64
      neighbour-gather index, the one-byte neighbours and the per-element
      bool and float32 one-hot (14 bytes per local site), and the float32
      counts with their int64 copy for the row code (12 per channel);
    * 16 int64 words: the states, patch indices, centres and row codes,
      dedup's sort order, sorted codes, group counters and inverse, and
      the unique codes, energies and (pair, state) indices of the misses;
    * the missed row's float32 counts and their state-0 gather (8 bytes
      per channel);
    * 96 bytes of Python ints, lists and dict entries that the row-cache
      probe or insert builds per unique code;
    * the network potential's evaluation of the row: its float32 features
      (``DESCRIPTOR_N_SETS`` per species), their standardised copy and the
      per-species gather (the tiled GEMM's buffers are per tile, not per
      row; a table potential needs less).

    In a dilute alloy only a few per cent of the rows miss, so a chunk's
    real peak is far below the figure.  :func:`miss_chunk_rows` sizes
    chunks with it and ``tensorkmc_memory_model`` charges it as the
    ``miss_transient`` term.
    """
    n_channels = tet.n_shells * n_elements
    encode = -(-(14 * tet.n_local + 12 * n_channels) // 9)
    potential = 3 * 4 * DESCRIPTOR_N_SETS * n_elements
    return int(encode + 8 * 16 + 8 * n_channels + 96 + potential)


def miss_chunk_rows(tet: TripleEncoding, n_elements: int = N_ELEMENTS) -> int:
    """Rows per miss-pipeline chunk: :data:`MISS_CHUNK_BYTES` over
    :func:`miss_row_bytes`.  The evaluator rounds it down to whole pairs
    (9 rows), at least one."""
    return max(1, MISS_CHUNK_BYTES // miss_row_bytes(tet, n_elements))


def miss_transient_bytes(
    tet: TripleEncoding, n_vacancies: int, n_elements: int = N_ELEMENTS
) -> int:
    """Transient bytes of the largest miss chunk ``n_vacancies`` can fill.

    The cold refresh evaluates every vacancy's ``9 * n_region`` rows; a
    chunk holds at most :func:`miss_chunk_rows` of them, or one pair's 9
    rows when a pair alone is larger than the budget.
    """
    n_states = 1 + tet.N_DIRECTIONS
    rows = min(
        int(n_vacancies) * n_states * tet.n_region,
        max(miss_chunk_rows(tet, n_elements), n_states),
    )
    return rows * miss_row_bytes(tet, n_elements)


def _stacked(part, n: int, step: int) -> np.ndarray:
    """``part(lo, hi)`` over ``[0, n)`` in steps of ``step``, stacked.

    The chunk loop of the miss pipeline: every chunk's result is copied
    into one preallocated output, so only one chunk's transients are alive
    at a time.  A batch of one chunk is returned as is.
    """
    if n <= step:
        return part(0, n)
    out = None
    for lo in range(0, n, step):
        chunk = part(lo, min(lo + step, n))
        if out is None:
            out = np.empty((n,) + chunk.shape[1:], dtype=chunk.dtype)
        out[lo:lo + len(chunk)] = chunk
    return out


@dataclass(frozen=True)
class StateEnergies:
    """Energies of one vacancy system: initial state + 8 trial final states."""

    #: Region energy of the current state (eV).
    initial: float
    #: ``(8,)`` energy differences E_f - E_i per hop direction (eV);
    #: undefined entries (invalid hops) are 0 and masked by ``valid``.
    delta: np.ndarray
    #: ``(8,)`` False where the 1NN target is itself a vacancy (no hop).
    valid: np.ndarray
    #: ``(8,)`` species of the atom that would migrate in each direction.
    migrating_species: np.ndarray


@dataclass(frozen=True)
class StateEnergiesBatch:
    """Energies of ``B`` vacancy systems evaluated through one fused pipeline.

    The arrays carry one row per vacancy; ``row(b)`` views row ``b`` as a
    scalar :class:`StateEnergies` (no copies).
    """

    #: ``(B,)`` region energies of the current states (eV).
    initial: np.ndarray
    #: ``(B, 8)`` energy differences E_f - E_i per hop direction (eV).
    delta: np.ndarray
    #: ``(B, 8)`` False where the 1NN target is itself a vacancy.
    valid: np.ndarray
    #: ``(B, 8)`` species of the atom that would migrate per direction.
    migrating_species: np.ndarray

    def __len__(self) -> int:
        return int(self.initial.shape[0])

    def row(self, b: int) -> StateEnergies:
        """Scalar view of vacancy ``b`` (arrays are views into the batch)."""
        return StateEnergies(
            initial=float(self.initial[b]),
            delta=self.delta[b],
            valid=self.valid[b],
            migrating_species=self.migrating_species[b],
        )


class VacancySystemEvaluator:
    """Evaluates hop energetics of vacancy systems for a fixed TET/potential.

    Parameters
    ----------
    tet:
        The triple-encoding tables (geometry).
    potential:
        Any counts-based potential; its shells must match the TET's.
    """

    def __init__(
        self,
        tet: TripleEncoding,
        potential: CountsPotential,
    ) -> None:
        if potential.n_shells != tet.n_shells or not np.allclose(
            potential.shell_distances, tet.shell_distances
        ):
            raise ValueError("potential shells do not match the TET shells")
        self.tet = tet
        self.potential = potential
        self.n_elements = getattr(potential, "n_elements", 2)
        self.vacancy_code = self.n_elements
        # Optional persistent row-energy memoization (see attach_row_cache).
        self._row_cache = None
        self._n_states = 1 + tet.N_DIRECTIONS
        # Shell of VET site t (centre / each 1NN) in each region site's
        # neighbour list, or -1 when t is out of its range.
        shell_of = np.full((self._n_states, tet.n_region), -1, dtype=np.int16)
        for t in range(self._n_states):
            rows, cols = np.nonzero(tet.net_ids == t)
            shell_of[t, rows] = tet.cet_shell[cols]
        # Count-patch lookup table for the row-level re-rate kernel.  The
        # swap patch of row r in state j — centre (species ``vac``) and 1NN
        # target (species ``mig``) trading places — depends only on the tiny
        # tuple (shell of the centre in r's list, shell of the target,
        # vac, mig), so every combination is tabulated once:
        # ``patch[s, e] = ((sh0 == s) - (shj == s)) * ((mig == e) - (vac == e))``
        # with shell -1 (outside the row's range) and the vacancy code
        # contributing nothing.  Entries are exact small integers in
        # float32, so adding a patch row to the state-0 counts reproduces
        # the full encode's counts bit for bit.  One extra all-zero block
        # (index ``n_sh * n_sh``) backs the state-0 column of the fused
        # per-row gather.
        n_sh = tet.n_shells + 1          # shell index + 1, -1 -> 0
        n_sp = self.n_elements + 1       # species codes incl. the vacancy
        table = np.zeros(
            ((n_sh * n_sh + 1) * n_sp * n_sp,
             tet.n_shells * self.n_elements),
            dtype=np.float32,
        )
        for a in range(n_sh):            # sh0 + 1
            for b in range(n_sh):        # shj + 1
                for v in range(n_sp):    # vac species code
                    for m in range(n_sp):  # mig species code
                        row = ((a * n_sh + b) * n_sp + v) * n_sp + m
                        for s in range(tet.n_shells):
                            for el in range(self.n_elements):
                                table[row, s * self.n_elements + el] = (
                                    (a - 1 == s) - (b - 1 == s)
                                ) * ((m == el) - (v == el))
        self._patch_table = table
        code = np.empty((tet.n_region, self._n_states), dtype=np.int64)
        code[:, 0] = n_sh * n_sh * n_sp * n_sp
        code[:, 1:] = (
            (shell_of[0][:, None].astype(np.int64) + 1) * n_sh
            + (shell_of[1:].T.astype(np.int64) + 1)
        ) * (n_sp * n_sp)
        self._patch_code = np.ascontiguousarray(code)
        self._patch_species = n_sp
        # Cached pieces of the counts_from_types kernel, so the per-row path
        # skips the per-call one-hot rebuild (the values are identical, so
        # the matmul inputs — and therefore the counts — are bit-identical).
        shell_onehot = np.zeros(
            (tet.net_ids.shape[1], tet.n_shells), dtype=np.float32
        )
        shell_onehot[
            np.arange(tet.net_ids.shape[1]),
            np.asarray(tet.cet_shell, dtype=np.int64),
        ] = 1.0
        self._shell_onehot = shell_onehot
        self._state_cols = np.arange(self._n_states, dtype=np.intp)
        # Exact row codes (:func:`~repro.core.rowcache.row_code_weights`)
        # key the dedup and the row cache, for the potentials dedup pays
        # for: network potentials, where a duplicate row costs a GEMM stack.
        # Table/EAM reductions evaluate every row, faster than the grouping
        # that would remove duplicates.  The code is linear in the counts,
        # so ``_patch_key`` (each patch row's code change) derives the swap
        # states' codes from state 0's.
        self._code_weights = None
        if resolve_row_cache(potential):
            self._code_weights, self._centre_weight = row_code_weights(
                tet, self.n_elements
            )
            self._patch_key = table.astype(np.int64) @ self._code_weights
        # Reverse NET over *all* VET positions: base[p, r] is True when a
        # species change at VET position p touches region row r in the
        # current state — p sits in r's neighbour list, or p *is* r.
        base = np.zeros((tet.n_all, tet.n_region), dtype=bool)
        base[
            np.asarray(tet.net_ids).ravel(),
            np.repeat(np.arange(tet.n_region), tet.net_ids.shape[1]),
        ] = True
        base[np.arange(tet.n_region), np.arange(tet.n_region)] = True
        # Folded over the 9 trial states: position p <= 8 also appears at
        # position 0 (swap positions trade places), and a change at the
        # centre itself shows up at every swap position.
        dirty = base.copy()
        dirty[1:self._n_states] |= base[0]
        dirty[0] = base[: self._n_states].any(axis=0)
        #: ``(n_all, n_region)`` — region rows whose stored trial-state
        #: energies go stale when the site at VET position p changes.
        self.dirty_rows_of_position = dirty
        # Precomputed swap scaffolding shared by the scalar and batched trial
        # builders: the VET index of each direction's 1NN target, and the
        # trial-state row each direction writes (row 1 + k swaps 0 <-> 1 + k).
        self._dir_targets = np.array(
            [tet.direction_vet_index(k) for k in range(tet.N_DIRECTIONS)],
            dtype=np.intp,
        )
        self._dir_rows = np.arange(1, self._n_states, dtype=np.intp)

    # ------------------------------------------------------------------
    # Persistent row-energy memoization
    # ------------------------------------------------------------------
    def attach_row_cache(self, cache):
        """Memoize unique-row energies in ``cache`` from now on.

        The cache (a :class:`~repro.core.rowcache.RowEnergyCache`) is
        consulted wherever in-batch dedup runs: before each potential call
        the unique rows are probed by row code, only never-seen rows go
        through the potential, and the fresh energies are inserted
        for the next batch.  Soundness is the dedup contract itself —
        ``batch_row_invariant`` guarantees a cached row's bits equal a
        fresh evaluation's — so the cache changes *when* rows are
        evaluated, never their values.  Pass ``None`` to detach.  Returns
        the cache for chaining.
        """
        self._row_cache = cache
        return cache

    @property
    def row_cache(self):
        """The attached :class:`RowEnergyCache`, or ``None``."""
        return self._row_cache

    def trial_vets(self, vet: np.ndarray) -> np.ndarray:
        """All trial states as a ``(9, n_all)`` array.

        Row 0 is the current state; row ``1 + k`` has the vacancy swapped
        with 1NN site ``k`` (VET[0] <-> VET[1 + k], paper Sec. 3.4).
        """
        vet = np.asarray(vet)
        if vet.shape != (self.tet.n_all,):
            raise ValueError(
                f"VET must have shape ({self.tet.n_all},), got {vet.shape}"
            )
        states = np.broadcast_to(vet, (self._n_states, vet.shape[0])).copy()
        targets = self._dir_targets
        states[self._dir_rows, 0] = vet[targets]
        states[self._dir_rows, targets] = vet[0]
        return states

    def trial_vets_batch(self, vets: np.ndarray) -> np.ndarray:
        """Trial states of ``B`` vacancy systems as a ``(B, 9, n_all)`` array.

        ``out[b]`` equals ``trial_vets(vets[b])``; the swap scatter runs once
        over the whole batch (one fancy-indexed write per swap side).
        """
        vets = np.asarray(vets)
        if vets.ndim != 2 or vets.shape[1] != self.tet.n_all:
            raise ValueError(
                f"VET batch must have shape (B, {self.tet.n_all}), "
                f"got {vets.shape}"
            )
        states = np.broadcast_to(
            vets[:, None, :], (vets.shape[0], self._n_states, vets.shape[1])
        ).copy()
        targets = self._dir_targets
        states[:, self._dir_rows, 0] = vets[:, targets]
        states[:, self._dir_rows, targets] = vets[:, 0, None]
        return states

    def region_features_counts(self, states: np.ndarray) -> np.ndarray:
        """Shell-type counts of every region site of every state.

        Returns ``(n_states, n_region, n_shells, n_elements)``; this is the
        exact workload of the fast feature operator (Sec. 3.4).
        """
        states = np.asarray(states)
        neighbor_types = states[:, self.tet.net_ids]  # (n_states, n_region, n_local)
        return counts_from_types(
            neighbor_types, self.tet.cet_shell, self.tet.n_shells,
            n_elements=self.n_elements,
        )

    def evaluate(self, vet: np.ndarray) -> StateEnergies:
        """Initial energy and per-direction energy changes for one VET."""
        vet = np.asarray(vet)
        if vet[self.tet.CENTER] != self.vacancy_code:
            raise ValueError("VET centre must be a vacancy")
        states = self.trial_vets(vet)
        counts = self.region_features_counts(states)
        n_states, n_region = states.shape[0], self.tet.n_region
        center_types = states[:, :n_region].reshape(-1)
        energies = self.potential.energies_from_counts(
            center_types,
            counts.reshape(-1, self.tet.n_shells, counts.shape[-1]),
        ).reshape(n_states, n_region)
        totals = energies.sum(axis=1, dtype=np.float64)
        # ``migrating_species`` is a view of the caller's VET (no copy).
        nn_species = vet[1 : 1 + self.tet.N_DIRECTIONS]
        valid = nn_species != self.vacancy_code
        delta = np.where(valid, totals[1:] - totals[0], 0.0)
        return StateEnergies(
            initial=float(totals[0]),
            delta=delta,
            valid=valid,
            migrating_species=nn_species,
        )

    def _dedup_rows(self, keys):
        """Group rows by their exact row code: ``(first, inverse)``.

        ``first`` holds one row of each distinct code, in ascending code
        order, and ``inverse`` each row's group, so ``keys[first[inverse]]``
        equals ``keys``.  The code is injective over every row the TET can
        produce (:func:`~repro.core.rowcache.row_code_weights`), so the rows
        of a group are identical — same centre species, same shell counts —
        and a row-invariant potential gives them bit-identical energies:
        one row per group is evaluated.  One sort, and no row is compared.
        """
        order = np.argsort(keys)
        ordered = keys[order]
        starts = np.empty(len(keys), dtype=bool)
        starts[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
        inverse = np.empty(len(keys), dtype=np.intp)
        inverse[order] = np.cumsum(starts) - 1
        return order[starts], inverse

    def evaluate_batch(self, vets: np.ndarray) -> StateEnergiesBatch:
        """Hop energetics of ``B`` vacancy systems in one fused pipeline.

        This is the paper's big-fusion batching applied to rate evaluation
        (Sec. 3.4 / Fig. 9): every ``(vacancy, region row)`` pair of the
        batch goes through one :meth:`evaluate_rows` call — state-0 shell
        counts per row, the eight swap states patched from them, the
        potential invoked once on the stacked ``B * 9 * n_region`` rows
        (for the NNP one batched GEMM stack instead of ``B`` small ones) —
        and :meth:`batch_from_row_energies` sums each vacancy's
        C-contiguous ``(9, n_region)`` block.

        Identical site rows (same centre species, same shell counts) are
        evaluated once and scattered back — the row-level analogue of the
        paper's VET hash cache (Sec. 3.4).  Trial states of one vacancy
        differ only near the swapped pair and neighbouring systems overlap,
        so in a dilute alloy the unique-row fraction is tiny.  Dedup is
        sound *only* for row-invariant potentials (``batch_row_invariant``):
        an identical row must produce identical bits no matter which batch
        it lands in.

        Per-row results are bit-identical to :meth:`evaluate` for every
        shipped potential: the counts are exact integers either way, the
        tabulated/EAM per-site energies are row independent by
        construction, and the NNP's tiled-GEMM kernel
        (:mod:`repro.operators.tilegemm`) fixes its call shapes and
        accumulation order so batching cannot change any row's bits.
        Chunking (:func:`miss_chunk_rows`) cannot change a bit either.
        """
        vets = np.asarray(vets)
        if vets.ndim != 2 or vets.shape[1] != self.tet.n_all:
            raise ValueError(
                f"VET batch must have shape (B, {self.tet.n_all}), "
                f"got {vets.shape}"
            )
        # A value outside the alphabet would be a centre digit past its
        # radix, where row codes stop being injective, and a neighbour that
        # no shell count sees.
        if vets.size and (vets.min() < 0 or vets.max() > self.vacancy_code):
            raise ValueError(
                f"VET values must be species codes 0..{self.vacancy_code}"
            )
        if np.any(vets[:, self.tet.CENTER] != self.vacancy_code):
            raise ValueError("every VET centre must be a vacancy")
        n_batch, n_region = vets.shape[0], self.tet.n_region
        rows = self.evaluate_rows(
            vets,
            np.repeat(np.arange(n_batch), n_region),
            np.tile(np.arange(n_region), n_batch),
        )
        row_e = np.ascontiguousarray(
            rows.reshape(n_batch, n_region, self._n_states).transpose(0, 2, 1)
        )
        return self.batch_from_row_energies(vets, row_e)

    # ------------------------------------------------------------------
    # Cross-caller batching: one fused call over many engines' miss rows
    # ------------------------------------------------------------------
    def batch_compatible(self, other: "VacancySystemEvaluator") -> bool:
        """Whether rows from ``other`` may share a batch with this one.

        Compatible means the stacked evaluation is *defined* and, for
        row-invariant potentials, per-row bit-identical to evaluating each
        caller's rows separately: both evaluators must run the very same
        potential object (not merely an equal one — weights and
        standardisation buffers live on the instance) over the same TET
        geometry and species alphabet.
        """
        return (
            other.potential is self.potential
            and other.n_elements == self.n_elements
            and other.tet.n_all == self.tet.n_all
            and other.tet.n_region == self.tet.n_region
            and np.allclose(
                other.tet.shell_distances, self.tet.shell_distances
            )
        )

    def evaluate_batch_segments(
        self, segments: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]
    ) -> List[np.ndarray]:
        """One fused :meth:`evaluate_rows` over the row worklists of many
        callers.

        ``segments`` holds one ``(vets, pair_b, pair_r)`` per caller (the
        campaign passes each replica's :class:`~repro.core.delta.RefreshPlan`
        worklist; segments without pairs are fine).  The VETs are stacked,
        each caller's ``pair_b`` offset into the stack, and every pair is
        evaluated through a *single* call — row dedup and the potential
        call then run across the whole stack, so identical environments in
        different replicas are evaluated once.  Returns each caller's
        ``(P_i, 9)`` slice.  For row-invariant potentials every returned
        row is bit-identical to the segment evaluating alone, which is what
        lets the campaign change *when* rows are evaluated without ever
        changing their values.
        """
        if not segments:
            return []
        n_all = self.tet.n_all
        vets = [np.asarray(v).reshape(-1, n_all) for v, _, _ in segments]
        offsets = np.cumsum([0] + [len(v) for v in vets])
        rows = self.evaluate_rows(
            np.concatenate(vets),
            np.concatenate([
                np.asarray(b, dtype=np.intp) + off
                for (_, b, _), off in zip(segments, offsets)
            ]),
            np.concatenate(
                [np.asarray(r, dtype=np.intp) for _, _, r in segments]
            ),
        )
        bounds = np.cumsum([0] + [len(b) for _, b, _ in segments])
        return [rows[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]

    # ------------------------------------------------------------------
    # Row-level re-rate: the incremental rebuild path's energy kernel
    # ------------------------------------------------------------------
    def evaluate_rows(
        self, vets: np.ndarray, pair_b: np.ndarray, pair_r: np.ndarray
    ) -> np.ndarray:
        """Trial-state energies of selected ``(vacancy, region row)`` pairs.

        The one miss pipeline: :meth:`evaluate_batch`, every engine's
        refresh and the campaign's shared call all end here.  For each pair
        ``(b, r)`` the 9 trial-state energies of region site ``r`` of
        vacancy ``b`` are computed exactly as the scalar :meth:`evaluate`
        would: the state-0 shell counts of the row come from
        :func:`counts_from_types` on the row's neighbour gather, the eight
        swap states patch those counts with exact-integer scatter adds (the
        centre and the direction's 1NN trade species), and the potential is
        invoked once over the stacked ``P * 9`` rows.  For row-invariant
        potentials (``batch_row_invariant``) every returned energy is
        bit-identical to the corresponding element of a full batch — which
        is what lets the delta rebuild path recompute *only* rows whose
        inputs changed and splice them into a cached ``(B, 9, n_region)``
        energy matrix.

        Returns the ``(P, 9)`` energies as a NumPy array in the potential's
        native energy dtype.  More pairs than one chunk of
        :func:`miss_chunk_rows` rows are evaluated chunk by chunk of whole
        pairs, so the transient memory stays bounded by
        :data:`MISS_CHUNK_BYTES`; later chunks hit the row-cache entries
        earlier ones inserted.
        """
        vets = np.asarray(vets)
        pair_b = np.asarray(pair_b, dtype=np.intp)
        pair_r = np.asarray(pair_r, dtype=np.intp)
        n_pairs = int(pair_b.size)
        if n_pairs == 0:
            return np.zeros((0, self._n_states))
        per_chunk = max(
            1, miss_chunk_rows(self.tet, self.n_elements) // self._n_states
        )
        return _stacked(
            lambda lo, hi: self._pair_energies(
                vets, pair_b[lo:hi], pair_r[lo:hi]
            ),
            n_pairs,
            per_chunk,
        )

    def _pair_energies(
        self, vets: np.ndarray, pair_b: np.ndarray, pair_r: np.ndarray
    ) -> np.ndarray:
        """``(P, 9)`` energies of one chunk of :meth:`evaluate_rows` pairs."""
        tet = self.tet
        n_pairs = int(pair_b.size)
        n_states = self._n_states
        n_el = self.n_elements
        # State-0 shell counts of every selected row — the same one-sgemm-
        # per-element kernel as :func:`counts_from_types`, inlined against
        # the cached shell one-hot (identical inputs, identical bits).  Only
        # the neighbour gather and the 9 swap positions are read, so no
        # pair copies its whole VET; every gather is a flat ``np.take``.
        base = pair_b * tet.n_all
        neighbors = np.take(vets, base[:, None] + tet.net_ids[pair_r])
        counts0 = np.empty((n_pairs, tet.n_shells, n_el), dtype=np.float32)
        for el in range(n_el):
            counts0[:, :, el] = np.matmul(
                (neighbors == el).astype(np.float32), self._shell_onehot
            )
        counts0 = counts0.reshape(n_pairs, -1)
        # Swap patches: in state j the centre (VET position 0, species
        # ``vac``) and the 1NN target (position j, species ``mig``) trade
        # places.  ``idx[p, j]`` is the row of the precomputed
        # ``_patch_table`` (see ``__init__``) holding that state's count
        # change; the state-0 column indexes the table's all-zero block.
        states = np.take(vets, base[:, None] + self._state_cols).astype(
            np.int64
        )                                                         # (P, 9)
        vac = states[:, 0]                                        # (P,)
        idx = np.take(self._patch_code, pair_r, axis=0)
        idx += vac[:, None] * self._patch_species
        idx += states
        # Centre species of each row per state: the row's own site, except
        # that in state j the two swap positions trade species — a row *at*
        # position j holds the vacancy, and the centre's own row (position
        # 0) holds each direction's migrating species.
        own = np.take(vets, base + pair_r)
        centers = np.where(
            pair_r[:, None] == self._state_cols, vac[:, None], own[:, None]
        )
        centers = np.where((pair_r == 0)[:, None], states, centers)
        if self._code_weights is None:
            # No dedup: one contiguous add patches the whole (P, 9, S * E)
            # counts tensor and every row goes through the potential.
            counts = np.take(self._patch_table, idx, axis=0)
            counts += counts0[:, None]
            return self.potential.energies_from_counts(
                centers.reshape(-1), counts.reshape(-1, tet.n_shells, n_el)
            ).reshape(n_pairs, n_states)
        # Every row's code: state 0's, plus each state's patch code and
        # centre term.
        keys = np.take(self._patch_key, idx)
        keys += (counts0.astype(np.int64) @ self._code_weights)[:, None]
        keys += centers * self._centre_weight
        keys = keys.reshape(-1)
        first, inverse = self._dedup_rows(keys)
        # Probe the row cache with the unique codes, then build the shell
        # counts of the rows that missed, and only those, by the same
        # exact-integer patch add.  Assembly is pure scatter, so the result
        # is bit-identical to evaluating every row fresh.
        cache = self._row_cache
        if cache is None:
            miss = np.ones(len(first), dtype=bool)
        else:
            cache.sync(self.potential)
            found, energies = cache.lookup(keys[first])
            miss = ~found
        if miss.any():
            rows = first[miss]
            p, j = np.divmod(rows, n_states)
            counts = np.take(self._patch_table, idx[p, j], axis=0)
            counts += counts0[p]
            fresh = self.potential.energies_from_counts(
                centers[p, j], counts.reshape(-1, tet.n_shells, n_el)
            )
            if cache is None:
                energies = fresh
            else:
                cache.insert(keys[rows], fresh)
                energies = energies.astype(fresh.dtype, copy=False)
                energies[miss] = fresh
        return energies[inverse].reshape(n_pairs, n_states)

    def batch_from_row_energies(
        self, vets: np.ndarray, row_energies: np.ndarray
    ) -> StateEnergiesBatch:
        """Fold a ``(B, 9, n_region)`` energy matrix into hop energetics.

        The tail of :meth:`evaluate_batch` and of every refresh: each
        vacancy's C-contiguous ``(9, n_region)`` block is summed in float64
        (the same reduction order for a fresh and a spliced matrix), then
        invalid hops are masked.
        """
        vets = np.asarray(vets)
        n_dir = self.tet.N_DIRECTIONS
        totals = np.sum(row_energies, axis=2, dtype=np.float64)
        nn_species = vets[:, 1 : 1 + n_dir]
        valid = nn_species != self.vacancy_code
        delta = np.where(valid, totals[:, 1:] - totals[:, :1], 0.0)
        return StateEnergiesBatch(
            initial=totals[:, 0],
            delta=delta,
            valid=valid,
            migrating_species=nn_species,
        )
