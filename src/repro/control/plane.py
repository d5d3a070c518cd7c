"""Live group reconfiguration: admit and drain replicas under load.

The paper's deployment model keeps a *fixed* replica set alive through
Totem membership; production elasticity needs the set itself to change
while the service keeps answering.  :class:`ControlPlane` drives both
directions against a running testbed (simulated or live — every wait is
the bed's ``wait_until``, whose ``bed.run(poll)`` steps advance virtual
time on the sim kernel and pump the event loop on the live one):

**Join** re-uses the paper's §3.2 recovery machinery: the new replica
announces GET_STATE through the ordered request queue, shadows rounds
while queuing (``observe_while_recovering``), receives the checkpoint at
a quiescent point — including the special CCS round that integrates its
clock — and only then serves.  The control plane's job is sequencing and
*verification*: wait until state transfer reports ready, the group view
includes the joiner on every node, and (optionally) the joiner has
completed fresh CCS rounds of its own.

**Drain** is the inverse, built so the primary component never breaks:
the replica first quiesces (stops accepting new work locally; its
parked operations are already executing on every other active replica,
which is what "hand off" means under active replication), then leaves
the group with an **ordered** ``GROUP_LEAVE`` — every node observes the
same view sequence, so primary succession is deterministic — and only
after every remaining node's view excludes it is its endpoint removed.
The node itself *stays in the Totem ring*: its gateway keeps forwarding
client traffic into the order, so draining a replica is invisible to
clients routed at that node.
"""

from __future__ import annotations

from contextlib import suppress
from typing import Callable, Dict, List, Optional

from ..errors import ReconfigurationError, WaitTimeout
from ..replication.replica import Replica

#: Default deadline for a reconfiguration step, in bed-clock seconds.
DEFAULT_TIMEOUT_S = 20.0


class ControlPlane:
    """Join/drain/restart driver for one replicated group on a testbed."""

    def __init__(
        self,
        bed,
        *,
        group: str = "timesvc",
        poll_s: float = 0.02,
        on_node_ready: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.bed = bed
        self.group = group
        self.poll_s = poll_s
        #: Invoked after a crashed node's stack is rebuilt, before its
        #: replica is re-added (as the group was deployed) — a judged
        #: run tells its oracle about the restart here.
        self.on_node_ready = on_node_ready
        #: Chronological record of completed reconfigurations.
        self.log: List[Dict[str, object]] = []

    # -- queries -------------------------------------------------------

    def serving(self) -> List[str]:
        """Node ids currently hosting a replica of the group."""
        return sorted(self.bed.services.get(self.group, {}))

    def view_members(self, node_id: str) -> List[str]:
        """The group view as computed on ``node_id``."""
        return self.bed.runtimes[node_id].view_members(self.group)

    def status(self) -> Dict[str, object]:
        replicas = self.bed.services.get(self.group, {})
        return {
            "group": self.group,
            "serving": sorted(replicas),
            "views": {node_id: self.view_members(node_id)
                      for node_id in self.bed.node_ids
                      if node_id in self.bed.runtimes},
            "ready": {node_id: replica.state_transfer.ready
                      for node_id, replica in replicas.items()},
            "log": list(self.log),
        }

    # -- join ----------------------------------------------------------

    def join(self, node_id: str, *, timeout_s: float = DEFAULT_TIMEOUT_S,
             require_rounds: int = 0) -> Replica:
        """Admit ``node_id`` as a serving replica and wait until it is
        fully caught up (state transferred, present in every view, and —
        when ``require_rounds`` is set and traffic flows — having
        completed that many fresh CCS rounds of its own)."""
        replica = self._admit(node_id)
        if replica is None:
            return self.bed.services[self.group][node_id]
        self._wait(lambda: replica.state_transfer.ready,
                   timeout_s=timeout_s,
                   what=f"state transfer to {node_id}")
        serving = self.serving()  # the joiner included
        self._wait(lambda: all(node_id in self.view_members(n)
                               for n in serving),
                   timeout_s=timeout_s,
                   what=f"{node_id} in every group view")
        stats = getattr(replica.time_source, "stats", None)
        if require_rounds and hasattr(stats, "rounds_completed"):
            self._wait(lambda: stats.rounds_completed >= require_rounds,
                       timeout_s=timeout_s,
                       what=f"{node_id} completing {require_rounds} rounds")
        self._record("join", node_id)
        return replica

    def join_async(self, node_id: str) -> bool:
        """Non-blocking join for kernel callbacks: start the admission
        (recover + add_replica → state transfer) without waiting for
        catch-up.  Returns False when the node already serves."""
        if self._admit(node_id) is None:
            return False
        self._record("join", node_id)
        return True

    # -- drain ---------------------------------------------------------

    def drain(self, node_id: str, *, timeout_s: float = DEFAULT_TIMEOUT_S,
              quiesce_s: float = 2.0) -> None:
        """Retire ``node_id``'s replica without breaking the group.

        Refuses to drain the last serving replica.  The node keeps its
        place in the Totem ring (and its gateway keeps serving clients);
        only its group membership ends.
        """
        replica = self._drainable(node_id)
        # Quiesce best-effort: let locally in-flight operations finish so
        # the departure lands between operations, not inside one.  Under
        # sustained load the replica may never be perfectly idle — that
        # is fine, every parked operation is also ordered at (and
        # answered by) the remaining active replicas.
        with suppress(ReconfigurationError):
            self._wait(lambda: replica.idle, timeout_s=quiesce_s,
                       what=f"{node_id} to quiesce")
        replica.endpoint.leave()
        remaining = [n for n in self.serving() if n != node_id]
        self._wait(lambda: all(node_id not in self.view_members(n)
                               for n in remaining),
                   timeout_s=timeout_s,
                   what=f"views excluding {node_id}")
        self._drained(node_id, replica)

    def drain_async(self, node_id: str, *, grace_s: float = 0.5) -> bool:
        """Non-blocking drain for use inside a kernel callback (the
        chaos fault injector cannot spin the kernel it is running on).
        Leaves immediately; endpoint removal follows after ``grace_s``
        (by which time the ordered LEAVE has propagated).  Returns False
        when the drain would be unsafe (last replica / not serving)."""
        try:
            replica = self._drainable(node_id)
        except ReconfigurationError:
            return False
        replica.endpoint.leave()

        def finalize() -> None:
            if self.bed.services.get(self.group, {}).get(node_id) is replica:
                self._drained(node_id, replica)

        self.bed.sim.schedule(grace_s, finalize)
        return True

    # -- restart -------------------------------------------------------

    def restart_node(self, node_id: str, *,
                     timeout_s: float = DEFAULT_TIMEOUT_S,
                     require_rounds: int = 0) -> Replica:
        """One rolling-restart step: drain, fail-stop, recover, rejoin.

        Returns only once the node is fully re-admitted, which is the
        gate the rolling driver relies on — at most one node is ever
        outside the group.
        """
        self.drain(node_id, timeout_s=timeout_s)
        self.bed.crash(node_id)
        self.bed.run(self.poll_s)
        return self.join(node_id, timeout_s=timeout_s,
                         require_rounds=require_rounds)

    # -- internals -----------------------------------------------------

    def _admit(self, node_id: str) -> Optional[Replica]:
        """The steps both joins take: retire a drain still pending, recover
        a crashed node, add its replica.  None when it already serves."""
        existing = self.bed.services.get(self.group, {}).get(node_id)
        if existing is not None:
            if existing.endpoint.joined:
                return None
            # An async drain left the group but has not finalized yet:
            # retire the departed replica now so the re-join starts from
            # a fresh endpoint (the finalizer's identity guard makes it
            # a no-op afterwards).
            self._retire(node_id, existing)
        if not self.bed.node(node_id).alive:
            self.bed.recover(node_id)
            if self.on_node_ready is not None:
                self.on_node_ready(node_id)
        return self.bed.add_replica(self.group, node_id)

    def _drainable(self, node_id: str) -> Replica:
        """``node_id``'s replica, if draining it leaves the group serving."""
        replicas = self.bed.services.get(self.group, {})
        replica = replicas.get(node_id)
        if replica is None:
            raise ReconfigurationError(
                f"{node_id} hosts no replica of {self.group!r}")
        if len(replicas) <= 1:
            raise ReconfigurationError(
                f"refusing to drain {node_id}: it is the last serving "
                f"replica of {self.group!r}")
        return replica

    def _drained(self, node_id: str, replica: Replica) -> None:
        self._retire(node_id, replica)
        self._record("drain", node_id)

    def _record(self, op: str, node_id: str) -> None:
        self.log.append({"op": op, "node": node_id, "at": self.bed.sim.now})

    def _retire(self, node_id: str, replica: Replica) -> None:
        # Delivery routes by endpoint registration, not view membership:
        # without removal the retired endpoint would keep receiving (and
        # executing!) ordered requests it no longer answers for.
        replica.suspended = True
        self.bed.runtimes[node_id].remove_endpoint(self.group)
        self.bed.services.get(self.group, {}).pop(node_id, None)

    def _wait(self, predicate: Callable[[], bool], *, timeout_s: float,
              what: str) -> None:
        try:
            self.bed.wait_until(predicate, timeout=timeout_s,
                                poll=self.poll_s)
        except WaitTimeout as timeout:
            raise ReconfigurationError(
                f"timed out after {timeout_s:.1f}s waiting for {what}"
            ) from timeout
