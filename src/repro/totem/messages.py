"""Wire-level messages of the Totem single-ring protocol.

Faithful (simplified) counterparts of the message types in Amir, Moser,
Melliar-Smith, Agarwal, Ciarfella, *"The Totem Single-Ring Ordering and
Membership Protocol"*, ACM TOCS 1995 — the group communication substrate
the paper's consistent time service is built on:

* :class:`RegularMessage` — an application multicast, sequenced on a ring.
* :class:`RegularToken`   — the circulating token that assigns sequence
  numbers, carries the all-received-up-to (aru) watermark and the
  retransmission-request (rtr) list.
* :class:`JoinMessage`    — membership: a processor's current view of the
  live and failed processor sets during the gather phase.
* :class:`CommitToken`    — membership: circulated around the proposed new
  ring to agree on it and to drive old-ring message recovery.
* :class:`ConfigurationChange` — not a wire message: the membership event
  delivered to the application, in total order with regular messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, NamedTuple, Optional, Tuple


class RingId(NamedTuple):
    """Identifies one ring: a monotonically increasing sequence number
    plus the representative (lowest-id member) that formed it; rings
    order, as the tuples they are, by ``(seq, representative)``."""

    seq: int
    representative: str

    def __str__(self) -> str:
        return f"ring({self.seq}@{self.representative})"


class LostMessage:
    """Tombstone payload for an irrecoverable old-ring message.

    During recovery, a sequence number that *no* surviving member holds
    (its sender crashed before anyone received it) is filled with a
    tombstone so that contiguous delivery can proceed identically at
    every member.  Tombstones are never delivered to the application.
    """

    def __repr__(self) -> str:
        return "<lost message>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LostMessage)

    def __hash__(self) -> int:
        return hash(LostMessage)

    def wire_size(self) -> int:
        return 0


class RegularMessage(NamedTuple):
    """A sequenced application multicast on a specific ring."""

    ring_id: RingId
    seq: int
    sender: str
    payload: Any
    #: True when this transmission is a retransmission (rtr-driven or
    #: recovery); receivers treat both identically, the flag is for
    #: statistics.
    retransmission: bool = False

    def wire_size(self) -> int:
        """Approximate frame size in bytes for the latency model."""
        payload_size = getattr(self.payload, "wire_size", lambda: 64)()
        return 48 + payload_size


class RegularToken(NamedTuple):
    """The rotating token of the single ring.

    * ``token_seq`` increments on every transmission; receivers discard
      tokens with a ``token_seq`` they have already seen (duplicate
      tokens arise from token retransmission).
    * ``seq`` is the highest message sequence number assigned so far.
    * ``aru`` ("all received up to") is the lowest contiguous-receive
      watermark among processors on the current rotation; ``aru_id``
      names the processor that lowered it.
    * ``rtr`` lists sequence numbers whose messages some processor is
      missing and has asked to be retransmitted.
    """

    ring_id: RingId
    token_seq: int
    seq: int
    aru: int
    aru_id: Optional[str]
    rtr: Tuple[int, ...] = ()

    def wire_size(self) -> int:
        return 64 + 4 * len(self.rtr)


class JoinMessage(NamedTuple):
    """Gather-phase membership advertisement."""

    sender: str
    proc_set: FrozenSet[str]
    fail_set: FrozenSet[str]
    #: Highest ring sequence number the sender has ever been part of or
    #: heard of; the new ring id must exceed all of these.
    ring_seq: int

    def wire_size(self) -> int:
        return 32 + 8 * (len(self.proc_set) + len(self.fail_set))


@dataclass
class CommitMemberInfo:
    """Per-member recovery information accumulated on the commit token."""

    old_ring_id: Optional[RingId] = None
    #: Highest message sequence number the member holds from its old ring.
    high_seq: int = 0
    #: The member's all-received-up-to watermark on the *new* ring's
    #: recovery exchange (old-ring messages being re-sequenced).
    recovery_aru: int = 0
    #: Set once the member has all old-ring messages up to the recovery
    #: ceiling and has delivered them.
    recovered: bool = False


@dataclass
class CommitToken:
    """Membership commit token, circulated around the proposed new ring.

    Rotation 1 collects each member's old-ring state; subsequent
    rotations drive retransmission of old-ring messages until every
    member reports ``recovered``; the representative then installs the
    new ring and injects a fresh regular token.
    """

    ring_id: RingId
    members: Tuple[str, ...]
    token_seq: int = 0
    rotation: int = 0
    info: Dict[str, CommitMemberInfo] = field(default_factory=dict)
    #: Outstanding retransmission requests: (old_ring_id, seq) pairs.
    rtr: List[Tuple[RingId, int]] = field(default_factory=list)

    def next_member(self, after: str) -> str:
        index = self.members.index(after)
        return self.members[(index + 1) % len(self.members)]

    def copy(self) -> "CommitToken":
        return replace(
            self,
            info={m: replace(i) for m, i in self.info.items()},
            rtr=list(self.rtr),
        )

    def wire_size(self) -> int:
        return 64 + 24 * len(self.members) + 12 * len(self.rtr)


class RingBeacon(NamedTuple):
    """Periodic multicast from a ring's representative.

    Totem proper detects partition remerge when foreign multicast traffic
    arrives; an idle ring sends nothing, so two healed-but-idle components
    would never find each other.  The beacon is a low-rate liveness
    advertisement that makes remerge detection independent of application
    traffic (a small, documented deviation from the original protocol).
    """

    ring_id: RingId
    sender: str

    def wire_size(self) -> int:
        return 24


class ConfigurationChange(NamedTuple):
    """Membership event delivered to the application.

    Delivered in total order with regular messages; ``is_primary`` tells
    the application whether this component may make progress under the
    primary-component partition model (paper Section 2).
    """

    ring_id: RingId
    members: Tuple[str, ...]
    joined: Tuple[str, ...]
    departed: Tuple[str, ...]
    is_primary: bool

    def __str__(self) -> str:
        return (
            f"config-change[{self.ring_id} members={','.join(self.members)} "
            f"+{','.join(self.joined) or '-'} -{','.join(self.departed) or '-'} "
            f"{'primary' if self.is_primary else 'non-primary'}]"
        )
