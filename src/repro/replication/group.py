"""Process groups over Totem: routing, views, and membership.

One :class:`GroupRuntime` runs per node, multiplexing all group traffic
over that node's single Totem processor (the paper runs "one and only
one instance of Totem on each node").  A :class:`GroupEndpoint` is one
group member hosted on a node (e.g. a server replica, or a client's
singleton group).

Group views are derived deterministically from the total order: replicas
announce themselves with a ``GROUP_JOIN`` message; Totem configuration
changes remove members on departed nodes.  Because every node observes
the identical sequence of ordered messages and configuration changes,
every node computes the identical sequence of views — which is what lets
passive replication pick the same new primary everywhere without further
agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import ReplicationError
from ..totem.messages import ConfigurationChange
from ..totem.ring import TotemProcessor
from .envelope import Envelope, MsgType, make_envelope


@dataclass(frozen=True)
class GroupView:
    """One group's membership at a point in the total order.

    ``members`` are node ids in *join order*; the first member is the
    primary for primary/backup styles (oldest-member-wins succession).
    """

    group: str
    view_id: int
    members: Tuple[str, ...]

    @property
    def primary(self) -> Optional[str]:
        return self.members[0] if self.members else None

    def __str__(self) -> str:
        return f"view({self.group}#{self.view_id}: {','.join(self.members)})"


class GroupEndpoint:
    """One group member on one node.

    Wire callbacks (all optional):

    * ``on_message(envelope)``      — ordered group message for this group.
    * ``on_view_change(view)``      — this group's membership changed.
    * ``on_config_change(change)``  — raw Totem configuration change
      (delivered to every endpoint; carries the primary-component flag).
    """

    def __init__(self, runtime: "GroupRuntime", group: str):
        self.runtime = runtime
        self.group = group
        self.node_id = runtime.node_id
        self.view = GroupView(group, 0, ())
        self.on_message: Optional[Callable[[Envelope], None]] = None
        self.on_view_change: Optional[Callable[[GroupView], None]] = None
        self.on_config_change: Optional[Callable[[ConfigurationChange], None]] = None
        #: Raw (pre-ordering) observation of a group message, used for
        #: early duplicate suppression in the time service.
        self.on_raw_message: Optional[Callable[[Envelope], None]] = None
        #: Whether a request ordered now will run here (see :meth:`mcast`).
        self.executes: Callable[[], bool] = lambda: True
        self.joined = False

    # -- membership ------------------------------------------------------

    def join(self) -> None:
        """Announce this member to the group (totally ordered, so every
        node sees joins in the same order)."""
        if self.joined:
            return
        self.joined = True
        self.runtime.mcast(
            make_envelope(
                MsgType.GROUP_JOIN, self.group, self.group, 0, 0, self.node_id
            )
        )

    def leave(self) -> None:
        """Voluntarily leave the group."""
        if not self.joined:
            return
        self.joined = False
        self.runtime.mcast(
            make_envelope(
                MsgType.GROUP_LEAVE, self.group, self.group, 0, 0, self.node_id
            )
        )

    @property
    def is_primary(self) -> bool:
        """True if this member heads the current view."""
        return self.view.primary == self.node_id

    # -- messaging ---------------------------------------------------------

    def mcast(self, envelope: Envelope) -> None:
        """Multicast an envelope into the total order; a ``REQUEST`` from a
        node whose replica would not run it goes as ``REQUEST_ALL``, as
        that replica could not answer it (the responder rule)."""
        header = envelope.header
        if header.msg_type is MsgType.REQUEST:
            local = self.runtime._endpoints.get(header.dst_grp)
            if local is not None and not local.executes():
                envelope = envelope._replace(header=header._replace(
                    msg_type=MsgType.REQUEST_ALL))
        self.runtime.mcast(envelope)

    def cancel_pending(self, predicate: Callable[[Envelope], bool]) -> int:
        """Withdraw queued-but-unsent envelopes (duplicate suppression)."""
        return self.runtime.cancel_pending(predicate)


class GroupRuntime:
    """Per-node multiplexer of group traffic over the Totem processor."""

    def __init__(self, processor: TotemProcessor):
        self.processor = processor
        self.node_id = processor.me
        self.sim = processor.sim
        self.tracer = processor.tracer
        self.metrics = processor.metrics
        self._endpoints: Dict[str, GroupEndpoint] = {}
        #: group -> ordered member list (maintained on ALL nodes, even
        #: those not hosting an endpoint, so late joiners see consistent
        #: views the moment they register).
        self._views: Dict[str, List[str]] = {}
        self._view_ids: Dict[str, int] = {}
        processor.on_deliver = self._on_deliver
        processor.on_config_change = self._on_config_change
        processor.on_raw_message = self._on_raw_message

    # -- endpoint management ---------------------------------------------

    def endpoint(self, group: str) -> GroupEndpoint:
        """Create (or fetch) the endpoint for ``group`` on this node."""
        if group not in self._endpoints:
            endpoint = GroupEndpoint(self, group)
            members = self._views.get(group, [])
            endpoint.view = GroupView(
                group, self._view_ids.get(group, 0), tuple(members)
            )
            self._endpoints[group] = endpoint
        return self._endpoints[group]

    def remove_endpoint(self, group: str) -> None:
        self._endpoints.pop(group, None)

    def view_members(self, group: str) -> List[str]:
        """The group's ordered member list as this node computes it."""
        return list(self._views.get(group, []))

    def deliver_local(self, envelope: Envelope) -> None:
        """Hand ``envelope`` to this node's member of its destination group."""
        target = self._endpoints.get(envelope.header.dst_grp)
        if target is not None and target.on_message is not None:
            target.on_message(envelope)

    # -- transmission --------------------------------------------------------

    def mcast(self, envelope: Envelope) -> None:
        self.processor.mcast(envelope)

    def cancel_pending(self, predicate: Callable[[Envelope], bool]) -> int:
        return self.processor.cancel_pending(
            lambda payload: isinstance(payload, Envelope) and predicate(payload)
        )

    # -- delivery ----------------------------------------------------------------

    def _on_deliver(self, msg) -> None:
        envelope = msg.payload
        if not isinstance(envelope, Envelope):
            raise ReplicationError(f"non-envelope payload in total order: {envelope!r}")
        msg_type = envelope.header.msg_type
        if msg_type is MsgType.GROUP_JOIN:
            self._apply_join(envelope.header.src_grp, envelope.sender)
        elif msg_type is MsgType.GROUP_LEAVE:
            self._apply_leave(envelope.header.src_grp, envelope.sender)
        elif msg_type is MsgType.VIEW_SYNC:
            self._apply_view_sync(envelope.header.src_grp, list(envelope.body))
        else:
            self.deliver_local(envelope)

    def _on_raw_message(self, payload) -> None:
        if not isinstance(payload, Envelope):
            return
        target = self._endpoints.get(payload.header.dst_grp)
        if target is not None and target.on_raw_message is not None:
            target.on_raw_message(payload)

    def _apply_join(self, group: str, node_id: str) -> None:
        members = self._views.setdefault(group, [])
        if node_id not in members:
            prev = tuple(members)
            members.append(node_id)
            self._bump_view(group, sync=True, prev_members=prev)

    def _apply_leave(self, group: str, node_id: str) -> None:
        members = self._views.get(group, [])
        if node_id in members:
            prev = tuple(members)
            members.remove(node_id)
            self._bump_view(group, sync=True, prev_members=prev)

    def _apply_view_sync(self, group: str, members: List[str]) -> None:
        """Adopt the full member list published by the group's primary.

        A node that joined the total order late missed earlier
        ``GROUP_JOIN`` messages; the sync (ordered after the join that
        triggered it, with content derived purely from delivery-order
        state) converges every node to the identical view.
        """
        if self._views.get(group, []) != members:
            self._views[group] = list(members)
            self._bump_view(group, sync=False)

    def _on_config_change(self, change: ConfigurationChange) -> None:
        # Notify endpoints BEFORE pruning views: suspension logic needs
        # to snapshot the group membership as it stood when the
        # configuration changed, not the already-pruned view.
        for endpoint in list(self._endpoints.values()):
            if endpoint.on_config_change is not None:
                endpoint.on_config_change(change)
        # Drop group members whose node left the configuration.
        alive = set(change.members)
        for group, members in self._views.items():
            surviving = [m for m in members if m in alive]
            if surviving != members:
                prev = tuple(members)
                self._views[group] = surviving
                self._bump_view(group, sync=True, prev_members=prev)
        for endpoint in list(self._endpoints.values()):
            # Re-announce membership after every configuration change:
            # a member that sat on the other side of a partition was
            # pruned from the other component's views and cannot know it,
            # so every joined endpoint re-joins (idempotent at receivers
            # that still list it); the authoritative VIEW_SYNC then
            # re-converges everyone's member order.
            if endpoint.joined:
                self.mcast(
                    make_envelope(
                        MsgType.GROUP_JOIN, endpoint.group, endpoint.group,
                        0, 0, self.node_id,
                    )
                )

    def _bump_view(self, group: str, *, sync: bool, prev_members=()) -> None:
        self._view_ids[group] = self._view_ids.get(group, 0) + 1
        members = tuple(self._views[group])
        endpoint = self._endpoints.get(group)
        if endpoint is not None:
            endpoint.view = GroupView(group, self._view_ids[group], members)
            if endpoint.on_view_change is not None:
                endpoint.on_view_change(endpoint.view)
            # The primary republishes the authoritative member list after
            # every membership event so late joiners converge.  Only a
            # node that was already a member before the event qualifies —
            # a joiner that missed history must never elect itself and
            # clobber the real view.
            if (
                sync
                and endpoint.joined
                and members
                and members[0] == self.node_id
                and self.node_id in prev_members
            ):
                self.mcast(
                    make_envelope(
                        MsgType.VIEW_SYNC, group, group, 0, 0, self.node_id,
                        body=list(members),
                    )
                )
