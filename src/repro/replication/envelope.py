"""Fault-tolerant protocol message envelope.

Every message exchanged above Totem carries the common header the paper
describes (Section 3.1): message type, source group, destination group,
connection identifier and per-connection sequence number.  For a regular
user message, ``(src_grp, dst_grp, conn_id)`` identifies a connection and
``msg_seq_num`` a message within it; for a CCS message, ``msg_seq_num``
carries the consistent-clock-synchronization round number.
"""

from __future__ import annotations

import enum
from typing import Any, NamedTuple, Tuple


class MsgType(enum.Enum):
    """Message types of the fault-tolerant protocol layer."""

    REQUEST = "request"          # remote method invocation
    REPLY = "reply"              # invocation result
    CCS = "ccs"                  # Consistent Clock Synchronization control
    GROUP_JOIN = "group_join"    # replica announces itself to its group
    GROUP_LEAVE = "group_leave"  # replica leaves voluntarily
    VIEW_SYNC = "view_sync"      # primary re-publishes the full member list
    GET_STATE = "get_state"      # recovering replica requests a checkpoint
    STATE = "state"              # checkpoint transfer to a recovering replica
    CHECKPOINT = "checkpoint"    # passive replication periodic checkpoint
    APP = "app"                  # application-defined group message
    REQUEST_ALL = "request_all"  # invocation every replica answers (ring)


class MessageHeader(NamedTuple):
    """The common fault-tolerant protocol message header."""

    msg_type: MsgType
    src_grp: str
    dst_grp: str
    conn_id: int
    msg_seq_num: int

    @property
    def message_id(self) -> Tuple[str, str, int, int]:
        """The fields that uniquely determine a message within the
        distributed system (paper Section 3.1)."""
        return (self.src_grp, self.dst_grp, self.conn_id, self.msg_seq_num)

    @property
    def op_key(self) -> Tuple[str, str, int, int]:
        """The operation this message belongs to, as ``(service group,
        client group, conn, seq)``: a reply's own id, any other message's
        with its groups swapped.  A request and its replies share it; a
        live gateway deduplicates on it and a trace is named by it."""
        if self.msg_type is MsgType.REPLY:
            return (self.src_grp, self.dst_grp, self.conn_id, self.msg_seq_num)
        return (self.dst_grp, self.src_grp, self.conn_id, self.msg_seq_num)


class Envelope(NamedTuple):
    """Header plus body plus the sending node, as multicast via Totem."""

    header: MessageHeader
    sender: str  # node id of the transmitting replica
    body: Any = None

    def wire_size(self) -> int:
        body_size = getattr(self.body, "wire_size", lambda: 96)()
        return 40 + body_size

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        h = self.header
        return (
            f"{h.msg_type.value}[{h.src_grp}->{h.dst_grp} conn={h.conn_id} "
            f"seq={h.msg_seq_num} from={self.sender}]"
        )


def make_envelope(msg_type: MsgType, src_grp: str, dst_grp: str, conn_id: int,
                  msg_seq_num: int, sender: str, body: Any = None) -> Envelope:
    """Convenience constructor used throughout the upper layers."""
    return Envelope(MessageHeader(msg_type, src_grp, dst_grp, conn_id, msg_seq_num), sender, body)
