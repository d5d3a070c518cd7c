"""Active replication: every replica processes every request.

All replicas are equal (no primary/backup) and process every request
(paper Section 2); all answer through the ring, first reply wins, unless
the client's nodes host replicas, which then answer alone, in process.
Correctness requires the replicas to be deterministic — which is exactly
what the consistent time service provides for clock-related operations.
"""

from __future__ import annotations

from typing import Callable, Optional

from .envelope import Envelope, MessageHeader, MsgType
from .replica import Replica


class ActiveReplica(Replica):
    """A member of an actively replicated group."""

    style = "active"

    def _handle_request(self, envelope: Envelope, index: int) -> None:
        self._enqueue_request(envelope, index)

    def _reply_route(self, header: MessageHeader) -> Optional[Callable]:
        # The responder rule (docs/algorithm.md): if every client node is
        # in the view, only the replicas there answer, in process (the one
        # route to the caller); views are ordered, so all decide the same.
        if header.msg_type is MsgType.REQUEST:
            clients = self.runtime.view_members(header.src_grp)
            if clients and set(clients).issubset(self.view.members):
                return (self.runtime.deliver_local
                        if self.node_id in clients else None)
        return self.endpoint.mcast
