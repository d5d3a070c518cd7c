"""Per-thread Consistent Clock Synchronization handler objects.

"There is one such handler object for each thread" (paper Section 3.1).
A :class:`CCSHandler` owns the thread's CCS round counter and input
buffer; the thread blocks in ``get_grp_clock_time()`` until the first
matching CCS message is delivered.

Operations park as :class:`PendingOp` entries keyed by
replica-independent operation ids, at most one :class:`RoundInFlight`
exists per handler, and ``my_round_number`` advances when a round's
winning message is *consumed*.  A round serves every parked operation
its winner's covering point names — exactly one when the replica
executes serially (the paper's Figure 2), a batch when it overlaps
reads.  Consumed rounds are retained (:class:`ConsumedRound`) so a
covered operation that is issued late — after its round was already
consumed — still adopts the agreed value of the correct round.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional

from ..errors import TimeServiceError
from ..sim.kernel import Event
from .messages import CCSMessage, OpId


@dataclass(order=True)
class PendingOp:
    """One clock operation parked while a round is in flight."""

    op_id: OpId
    call: object = field(compare=False)
    result: Event = field(compare=False)
    started_at: float = field(compare=False)
    #: Session floor carried by the request (the client's last-seen
    #: value): the reply must exceed it.  Rides the totally ordered
    #: request, so every replica applies the same clamp to this op.
    floor_us: Optional[int] = field(default=None, compare=False)


@dataclass
class RoundInFlight:
    """The (single) round currently awaiting its winner."""

    round_number: int
    #: Operation id this round covers *as proposed by us*; the winning
    #: message's covering point is what actually binds.
    covers: OpId
    proposal_us: int
    physical_us: int
    call_type_id: int
    #: True once our own CCS message for this round was handed to Totem.
    sent: bool
    started_at: float


@dataclass(frozen=True)
class ConsumedRound:
    """A consumed round, retained for late-issued covered ops."""

    round_number: int
    covers: OpId
    group_us: int


class CCSHandler:
    """my_thread_id, my_round_number, my_input_buffer and friends."""

    def __init__(self, thread_id: str):
        self.my_thread_id = thread_id
        #: The highest *consumed* round (the consumption point); a state
        #: transfer raises it.
        self.my_round_number = 0
        #: Received CCS messages not yet consumed by an operation.
        self.my_input_buffer: Deque[CCSMessage] = deque()
        #: Operations parked until a round covering them is consumed,
        #: kept sorted by operation id.
        self.parked: List[PendingOp] = []
        #: The round awaiting its winning message, if any.
        self.in_flight: Optional[RoundInFlight] = None
        #: Consumed rounds retained for late-issued covered operations,
        #: in round order (covering points strictly increase with it).
        self.consumed: Deque[ConsumedRound] = deque()
        #: Highest operation id assigned on this thread — resumes the
        #: fallback numbering for reads without an explicit id.
        self.last_op_id: OpId = (0, 0)

    # ------------------------------------------------------------------

    def recv_CCS_msg(self, msg: CCSMessage) -> None:
        """Append a (non-duplicate) CCS message (Figure 3 lines 6-9; the
        service pumps the handler, which wakes the covered operations)."""
        self.my_input_buffer.append(msg)

    def pop_message(self) -> CCSMessage:
        """Select (and remove) the first message in the input buffer."""
        if not self.my_input_buffer:
            raise TimeServiceError(
                f"thread {self.my_thread_id!r} popped from an empty buffer"
            )
        return self.my_input_buffer.popleft()

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def assign_op_id(self, op_id: Optional[OpId]) -> OpId:
        """Fix the identity of one operation.

        Explicit ids come from the replica runtime (``(request_index,
        read_seq)``, replica-independent).  Reads without one — dedicated
        threads, the special state-transfer round — continue the thread's
        own sequence, which is deterministic because such reads are
        issued sequentially (the special round runs at a quiescent
        point, where ``last_op_id`` is identical at every replica).
        """
        if op_id is None:
            op_id = (self.last_op_id[0], self.last_op_id[1] + 1)
        if op_id > self.last_op_id:
            self.last_op_id = op_id
        return op_id

    def park(self, op: PendingOp) -> None:
        """Park an operation until a round covering it is consumed."""
        bisect.insort(self.parked, op)

    def take_covered(self, covers: OpId) -> List[PendingOp]:
        """Remove and return the parked operations with id <= ``covers``,
        in operation order."""
        cut = 0
        while cut < len(self.parked) and self.parked[cut].op_id <= covers:
            cut += 1
        served, self.parked = self.parked[:cut], self.parked[cut:]
        return served

    def retain_consumed(self, entry: ConsumedRound) -> None:
        """Remember a consumed round for late-issued covered operations."""
        self.consumed.append(entry)

    def lookup_consumed(self, op_id: OpId) -> Optional[ConsumedRound]:
        """The first consumed round covering ``op_id``, if any.

        Covering points increase strictly with the round number, so the
        first (oldest) retained entry with ``covers >= op_id`` is the
        round every replica serves this operation from.
        """
        for entry in self.consumed:
            if entry.covers >= op_id:
                return entry
        return None

    def prune_consumed(self, min_request_index: int) -> None:
        """Drop retained rounds no not-yet-issued operation can need:
        once every request below ``min_request_index`` has finished, all
        operations with ids below ``(min_request_index, 0)`` have been
        issued, and later operations have later ids."""
        while self.consumed and self.consumed[0].covers < (min_request_index, 0):
            self.consumed.popleft()

    # ------------------------------------------------------------------

    def abort_pending(self, reason: str) -> bool:
        """Fail every parked operation and withdraw the round in flight.

        Returns True if anything was aborted.  Subsequent messages land
        in the buffer until the next operation parks and consumes them.
        """
        round_, self.in_flight = self.in_flight, None
        parked, self.parked = self.parked, []
        number = round_.round_number if round_ else self.my_round_number + 1
        for op in parked:
            self._fail_result(op.result, number, reason)
        return bool(parked)

    def _fail_result(self, result: Event, round_number: int, reason: str) -> None:
        if result.triggered:
            return
        result.fail(
            TimeServiceError(
                f"clock operation round {round_number} on "
                f"thread {self.my_thread_id!r} aborted: {reason}"
            )
        )
        # A deliberate abort, not a bug: don't let the scheduler
        # re-raise if the waiting process died before observing it.
        result.defuse()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CCSHandler {self.my_thread_id} round={self.my_round_number} "
            f"buffered={len(self.my_input_buffer)} parked={len(self.parked)}>"
        )
