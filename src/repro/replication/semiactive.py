"""Semi-active replication (Delta-4 style hybrid, paper Section 2).

Both the primary and the backups process incoming messages, but any
non-deterministic decision is made at the primary and conveyed to the
backups.  Here the non-deterministic decisions are clock readings: the
consistent time service reads the style and lets only the primary
multicast CCS messages; backups block until the primary's value arrives
and adopt it.  Only the primary transmits replies.
"""

from __future__ import annotations

from typing import Callable, Optional

from .envelope import Envelope, MessageHeader
from .replica import Replica


class SemiActiveReplica(Replica):
    """A member of a semi-actively replicated group: its consistent time
    service takes clock decisions at the primary only, as Delta-4
    prescribes."""

    style = "semi-active"

    def _handle_request(self, envelope: Envelope, index: int) -> None:
        # Everyone processes (unlike passive replication, backups stay
        # hot and need no replay on failover).
        self._enqueue_request(envelope, index)

    def _reply_route(self, header: MessageHeader) -> Optional[Callable]:
        # Only the primary talks to the outside world.
        return self.endpoint.mcast if self.is_primary else None
