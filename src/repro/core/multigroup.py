"""Multigroup causal group clocks (the paper's Section 5 future work).

With several replica groups, each maintains its own group clock, and
"the problem of maintaining causal relationships of the consistent group
clocks for the different groups arises".  The sketched solution —
implemented here — "includes the value of the consistent group clock as
a timestamp in the user messages multicast to the different groups".

Usage inside replicated application code::

    # sending side (group A): stamp outgoing work
    stamp = stamp_outgoing(ctx)          # A's latest group clock value

    # receiving side (group B): the stamp rides in the ordered request,
    # so every replica of B observes it identically and deterministically
    observe_incoming(ctx, stamp)         # B's clock now exceeds it

After ``observe_incoming``, every subsequent group-clock reading in B is
strictly greater than the stamped value, so causality across groups is
reflected in the clocks: if event *a* in A happened-before event *b* in
B (via a message), then ``clock(a) < clock(b)``.
"""

from __future__ import annotations

from typing import NamedTuple

from ..errors import TimeServiceError
from ..replication.context import ReplicaContext
from .time_service import ConsistentTimeService


class GroupClockStamp(NamedTuple):
    """A group clock value attached to an inter-group message."""

    group: str
    micros: int

    def wire_size(self) -> int:
        return 16


def _service_of(ctx: ReplicaContext) -> ConsistentTimeService:
    source = ctx.replica.time_source
    if not isinstance(source, ConsistentTimeService):
        raise TimeServiceError(
            "multigroup causal timestamps require the consistent time "
            f"service; this replica uses {source.name!r}"
        )
    return source


def stamp_outgoing(ctx: ReplicaContext) -> GroupClockStamp:
    """Produce the timestamp to piggyback on an inter-group message.

    Deterministic across replicas: the latest group clock value is
    identical everywhere in the group.
    """
    service = _service_of(ctx)
    return GroupClockStamp(ctx.replica.group, service.current_timestamp())


def observe_incoming(ctx: ReplicaContext, stamp: GroupClockStamp) -> None:
    """Fold a received timestamp into this group's causal floor.

    Must be called from replicated request-processing code so that every
    replica observes the stamp at the same point in the total order.
    """
    service = _service_of(ctx)
    service.observe_timestamp(stamp.micros)
