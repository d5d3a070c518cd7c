"""CCS (Consistent Clock Synchronization) message payloads.

A CCS message travels in an :class:`~repro.replication.envelope.Envelope`
whose header carries the common fault-tolerant protocol fields; per the
paper (Section 3.1) the envelope's ``msg_seq_num`` holds the CCS round
number, and the payload holds the sending thread identifier and the
local clock value being proposed for the group clock, plus the clock
call type identifier (Section 4.1).
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

#: A clock-operation identifier: ``(request_index, read_seq)``.
#: Replica-independent by construction — the request index comes from the
#: total order and the read sequence from the handler's program order —
#: and totally ordered by lexicographic comparison.
OpId = Tuple[int, int]


class CCSMessage(NamedTuple):
    """Payload of one Consistent Clock Synchronization message."""

    #: Identifier of the sending logical thread; CCS messages are matched
    #: to the handler of the thread performing the same logical operation.
    thread_id: str
    #: The CCS round number (duplicated from the envelope header for
    #: self-containedness).
    round_number: int
    #: The local logical clock value proposed for the group clock:
    #: physical hardware clock + the sender's clock offset, microseconds.
    proposed_micros: int
    #: Which interposed call started the round (gettimeofday/time/ftime).
    call_type_id: int
    #: True for the special round run during state transfer (Section 3.2).
    special: bool = False
    #: The covering point: the highest operation id this round serves —
    #: every operation with id <= ``(covers_req, covers_seq)`` adopts the
    #: round's group-clock value.  Because the covering point rides *in*
    #: the message that wins the round, batch membership is agreed
    #: across replicas, not a local timing accident.  Operation ids
    #: start above ``(0, 0)``, so the default covers no operation.
    covers_req: int = 0
    covers_seq: int = 0

    @property
    def covers(self) -> OpId:
        """The covering operation id."""
        return (self.covers_req, self.covers_seq)

    def wire_size(self) -> int:
        return 40

    def __str__(self) -> str:
        return (
            f"CCS[{self.thread_id} r{self.round_number} "
            f"propose={self.proposed_micros}us call={self.call_type_id}"
            f" covers={self.covers_req}.{self.covers_seq}"
            f"{' special' if self.special else ''}]"
        )
