"""SimComm — a deterministic in-process MPI substitute.

The paper runs on swmpi across up to 422,400 processes; we do not have an MPI
runtime (or the machine), so the synchronous sublattice protocol runs against
this communicator: every rank is a Python object, messages are enqueued into
per-destination mailboxes, and the driver advances all ranks in lockstep
phases.  The protocol being validated (conflict-free boundary hops, ghost
consistency, time synchronisation) is transport-independent, and SimComm
additionally *counts* every message and byte so the scaling model can be
calibrated from real traffic.

The transport is no longer assumed perfect: a
:class:`~repro.parallel.faults.FaultPlan` attached to the world drops,
duplicates, delays, or kills on a deterministic schedule, and every protocol
violation (a missing expected message, a duplicated phase message, an
undrained mailbox) surfaces as a structured :class:`ProtocolError` carrying
the ``(rank, tag, cycle)`` coordinate plus a transcript of recent traffic —
never a bare ``RuntimeError``.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from .faults import FaultPlan

__all__ = [
    "CommStats",
    "ProtocolError",
    "SimComm",
    "SimCommWorld",
    "allreduce_sum",
]

#: Transcript entries kept for ProtocolError context.
TRANSCRIPT_DEPTH = 64


class ProtocolError(RuntimeError):
    """A sublattice-protocol violation with full addressing context.

    Subclasses ``RuntimeError`` so legacy ``except RuntimeError`` handlers
    still fire, but carries structured fields — ``rank`` (the endpoint that
    observed the violation), ``tag``, ``cycle``, and a ``transcript`` of the
    most recent communicator traffic — so failures at scale are debuggable
    and the recovery driver can react without string matching.
    """

    def __init__(
        self,
        message: str,
        *,
        rank: Optional[int] = None,
        tag: Any = None,
        cycle: Optional[int] = None,
        transcript: Iterable[str] = (),
    ) -> None:
        #: The raw message, before the addressing prefix is attached.  Kept
        #: so pickling reconstructs through ``__init__`` without the detail
        #: string re-prefixing itself on every round-trip.
        self.message = message
        self.rank = rank
        self.tag = tag
        self.cycle = cycle
        self.transcript = tuple(transcript)
        detail = f"[rank={rank} tag={tag!r} cycle={cycle}] {message}"
        if self.transcript:
            detail += "\n  recent traffic:\n    " + "\n    ".join(self.transcript)
        super().__init__(detail)

    def __reduce__(self):
        return (
            _rebuild_protocol_error,
            (
                type(self),
                self.message,
                self.rank,
                self.tag,
                self.cycle,
                self.transcript,
            ),
        )


def _rebuild_protocol_error(cls, message, rank, tag, cycle, transcript):
    """Pickle helper: rebuild through the keyword-only constructor."""
    return cls(message, rank=rank, tag=tag, cycle=cycle, transcript=transcript)


@dataclass
class CommStats:
    """Traffic counters, the calibration input of the scaling model."""

    messages_sent: int = 0
    bytes_sent: int = 0
    barriers: int = 0
    collectives: int = 0

    def merge(self, other: "CommStats") -> None:
        self.messages_sent += other.messages_sent
        self.bytes_sent += other.bytes_sent
        self.barriers += other.barriers
        self.collectives += other.collectives


@dataclass
class FaultStats:
    """How many injected faults actually bit (per class)."""

    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    lost_to_dead_rank: int = 0


def _payload_bytes(payload: Any) -> int:
    """Approximate wire size of a payload (NumPy arrays dominate)."""
    nbytes = getattr(payload, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    if isinstance(payload, (tuple, list)):
        return sum(_payload_bytes(p) for p in payload)
    if isinstance(payload, dict):
        return sum(_payload_bytes(v) for v in payload.values())
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, (bytes, str)):
        return len(payload)
    return 64  # conservative default for small objects


class SimCommWorld:
    """The shared mail system of one communicator group.

    Parameters
    ----------
    size:
        Number of ranks.
    fault_plan:
        Optional :class:`~repro.parallel.faults.FaultPlan`; when attached,
        sends consult it and cycle boundaries (``begin_cycle``) arm scripted
        rank kills and deliver delayed messages.
    """

    def __init__(self, size: int, fault_plan: Optional[FaultPlan] = None) -> None:
        if size < 1:
            raise ValueError(f"communicator size must be >= 1, got {size}")
        self.size = size
        # mailbox[(dest, tag)] holds (src, payload) in send order.
        self.mailboxes: Dict[Tuple[int, Any], Deque[Tuple[int, Any]]] = defaultdict(deque)
        self.stats = CommStats()
        self.fault_plan = fault_plan
        self.fault_stats = FaultStats()
        self.cycle = 0
        #: Ranks removed by an injected kill; they neither send nor receive.
        self.killed: set = set()
        #: Messages held back by a delay fault: (due_cycle, dest, tag, src, payload).
        self._delayed: List[Tuple[int, int, Any, int, Any]] = []
        #: Rolling log of recent traffic, embedded in ProtocolErrors.
        self.transcript: Deque[str] = deque(maxlen=TRANSCRIPT_DEPTH)

    def comm(self, rank: int) -> "SimComm":
        """The endpoint of one rank."""
        if not 0 <= rank < self.size:
            raise ValueError(f"rank {rank} out of range [0, {self.size})")
        return SimComm(self, rank)

    # ------------------------------------------------------------------
    def begin_cycle(self, cycle: int) -> None:
        """Advance the protocol clock: arm due kills, release delayed mail."""
        self.cycle = int(cycle)
        matured = [m for m in self._delayed if m[0] <= self.cycle]
        self._delayed = [m for m in self._delayed if m[0] > self.cycle]
        for _due, dest, tag, src, payload in matured:
            self.mailboxes[(dest, tag)].append((src, payload))
            self.transcript.append(
                f"c{self.cycle}: delayed {src}->{dest} tag={tag!r} delivered late"
            )
        if self.fault_plan is not None:
            for victim in self.fault_plan.kills_due(self.cycle):
                self.killed.add(victim)
                self.transcript.append(f"c{self.cycle}: rank {victim} killed")

    def record(self, entry: str) -> None:
        """Append one line to the rolling protocol transcript."""
        self.transcript.append(f"c{self.cycle}: {entry}")

    def transcript_tail(self, n: int = 8) -> Tuple[str, ...]:
        """The last ``n`` transcript lines (for error context)."""
        return tuple(list(self.transcript)[-n:])

    def assert_drained(self) -> None:
        """Protocol check: no unconsumed messages may remain."""
        leftover = {k: len(v) for k, v in self.mailboxes.items() if v}
        if leftover:
            (dest, tag), _count = next(iter(sorted(leftover.items(), key=str)))
            raise ProtocolError(
                f"undelivered messages remain: {leftover}",
                rank=dest,
                tag=tag,
                cycle=self.cycle,
                transcript=self.transcript_tail(),
            )
        if self._delayed:
            due, dest, tag, src, _ = self._delayed[0]
            raise ProtocolError(
                f"{len(self._delayed)} delayed message(s) still in flight "
                f"(next: {src}->{dest} due cycle {due})",
                rank=dest,
                tag=tag,
                cycle=self.cycle,
                transcript=self.transcript_tail(),
            )


@dataclass
class SimComm:
    """One rank's endpoint (mirrors the small slice of MPI we need)."""

    world: SimCommWorld
    rank: int
    local_stats: CommStats = field(default_factory=CommStats)

    @property
    def size(self) -> int:
        return self.world.size

    # ------------------------------------------------------------------
    def send(self, dest: int, tag: Any, payload: Any) -> None:
        """Enqueue a message (non-blocking, buffered — like MPI_Isend+wait)."""
        if not 0 <= dest < self.size:
            raise ValueError(f"destination {dest} out of range")
        world = self.world
        if self.rank in world.killed:
            return  # a dead process sends nothing
        nbytes = _payload_bytes(payload)
        for stats in (world.stats, self.local_stats):
            stats.messages_sent += 1
            stats.bytes_sent += nbytes
        if dest in world.killed:
            world.fault_stats.lost_to_dead_rank += 1
            world.record(f"send {self.rank}->{dest} tag={tag!r} lost (dest dead)")
            return
        action = None
        if world.fault_plan is not None:
            action = world.fault_plan.action_for_send(
                world.cycle, self.rank, dest, tag
            )
        if action == "drop":
            world.fault_stats.dropped += 1
            world.record(f"send {self.rank}->{dest} tag={tag!r} DROPPED")
            return
        if action == "delay":
            world.fault_stats.delayed += 1
            world._delayed.append(
                (world.cycle + 1, dest, tag, self.rank, payload)
            )
            world.record(f"send {self.rank}->{dest} tag={tag!r} DELAYED")
            return
        world.mailboxes[(dest, tag)].append((self.rank, payload))
        world.record(f"send {self.rank}->{dest} tag={tag!r} ({nbytes} B)")
        if action == "duplicate":
            world.fault_stats.duplicated += 1
            world.mailboxes[(dest, tag)].append((self.rank, payload))
            world.record(f"send {self.rank}->{dest} tag={tag!r} DUPLICATED")

    def recv(self, src: int, tag: Any) -> Any:
        """Receive the next message with ``tag`` from ``src`` (must exist).

        The lockstep driver guarantees sends complete before the matching
        phase's receives, so a missing message is a protocol bug (or an
        injected fault), reported as a structured :class:`ProtocolError`.
        """
        world = self.world
        box = world.mailboxes[(self.rank, tag)]
        for i, (s, payload) in enumerate(box):
            if s == src:
                del box[i]
                world.record(f"recv {src}->{self.rank} tag={tag!r}")
                return payload
        raise ProtocolError(
            f"rank {self.rank}: no message with tag {tag!r} from {src} "
            f"(mailbox holds sources {[s for s, _ in box]})",
            rank=self.rank,
            tag=tag,
            cycle=world.cycle,
            transcript=world.transcript_tail(),
        )

    def recv_all(
        self, tag: Any, expected_sources: Optional[Sequence[int]] = None
    ) -> List[Tuple[int, Any]]:
        """Drain every pending message with ``tag`` (any source), send order.

        With ``expected_sources`` the phase contract is enforced: exactly one
        message per expected source.  A missing source (dropped / delayed
        message, dead rank) or a repeated source (duplicated message) raises
        :class:`ProtocolError` with the offending sources named.
        """
        world = self.world
        box = world.mailboxes[(self.rank, tag)]
        out = list(box)
        box.clear()
        if out:
            world.record(
                f"recv_all {self.rank} tag={tag!r} drained {len(out)} msg(s)"
            )
        if expected_sources is not None:
            counts: Dict[int, int] = {}
            for s, _ in out:
                counts[s] = counts.get(s, 0) + 1
            missing = [s for s in expected_sources if counts.get(s, 0) == 0]
            repeated = [s for s in expected_sources if counts.get(s, 0) > 1]
            if missing or repeated:
                parts = []
                if missing:
                    parts.append(f"missing message(s) from {missing}")
                if repeated:
                    parts.append(f"duplicate message(s) from {repeated}")
                raise ProtocolError(
                    f"rank {self.rank}: " + " and ".join(parts)
                    + f" in phase tag {tag!r}",
                    rank=self.rank,
                    tag=tag,
                    cycle=world.cycle,
                    transcript=world.transcript_tail(),
                )
        return out

    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Counted no-op: the lockstep driver provides the synchronisation."""
        self.world.stats.barriers += 1
        self.local_stats.barriers += 1

    def allreduce_sum(self, values: List[float]) -> None:  # pragma: no cover
        """Placeholder endpoint; use :func:`allreduce_sum` on the driver side."""
        raise NotImplementedError(
            "collectives are driver-side in SimComm: see drivers in "
            "repro.parallel.engine"
        )


def allreduce_sum(world: SimCommWorld, contributions: List[float]) -> float:
    """Driver-side sum-allreduce over per-rank contributions (counted).

    Each rank ships its contribution into the reduction, so the collective
    accounts one message and the contribution's wire size *per rank* — the
    scaling model calibrates communication volume from ``CommStats`` and must
    see collective traffic, not just point-to-point ghost exchange.
    """
    if len(contributions) != world.size:
        raise ValueError("one contribution per rank required")
    world.stats.collectives += 1
    world.stats.messages_sent += world.size
    world.stats.bytes_sent += sum(_payload_bytes(c) for c in contributions)
    return float(sum(contributions))
