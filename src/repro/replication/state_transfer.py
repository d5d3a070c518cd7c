"""State transfer to joining / recovering replicas (paper Section 3.2,
"Integration of New Clocks").

Protocol, all in the total order:

1. The recovering replica multicasts ``GET_STATE`` and starts queuing
   application messages it cannot process yet.
2. Existing replicas process ``GET_STATE`` *through the normal request
   queue*, so it executes at a quiescent point — after every earlier
   request completes and before any later one starts.
3. At that point each existing replica performs one clock-related
   operation (the **special CCS round**: "the mechanisms at the existing
   replicas take a clock value immediately before the checkpoint"), then
   the designated member (the view primary) takes a checkpoint and
   multicasts ``STATE``.
4. The recovering replica does not compete in the special round; it
   adjusts its clock offset as soon as a winning CCS message arrives
   (handled inside the time service), applies the checkpoint — app state,
   request counter and per-thread CCS round numbers — and only then
   processes its queued messages.

The group clock therefore stays monotone and consistent across the
addition of the new clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, TYPE_CHECKING

from .. import obs
from .envelope import Envelope, MsgType, make_envelope

if TYPE_CHECKING:  # pragma: no cover
    from .replica import Replica


@dataclass
class Checkpoint:
    """Everything a recovering replica needs to become a full member."""

    app_state: Any
    request_index: int
    time_state: Any = None
    #: Passive replication: how many requests the checkpointed state covers.
    processed_index: int = 0
    #: Style-specific extra state (e.g. a passive backup's request log).
    extra: Any = None

    def wire_size(self) -> int:
        return 256


#: Recovery phases: messages before our own GET_STATE are covered by the
#: checkpoint (discard); messages after it are queued for replay.
DISCARDING = "discarding"
QUEUING = "queuing"
READY = "ready"

# -- pushed instruments (zero-cost while the registry is off); transfers
# served and applied are read from ReplicaStats -------------------------
M_TRANSFER_BYTES = obs.histogram(
    "replication_state_transfer_bytes",
    "estimated state-transfer wire size", unit="bytes",
    buckets=(64, 128, 256, 512, 1_024, 4_096, 16_384, 65_536))
M_TRANSFER_LATENCY = obs.histogram(
    "replication_state_transfer_latency_s",
    "GET_STATE request to checkpoint adoption", unit="s",
    buckets=(0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0))


class StateTransferManager:
    """Handles GET_STATE / STATE for one replica."""

    def __init__(self, replica: "Replica"):
        self.replica = replica
        self.tracer = replica.tracer
        self.metrics = replica.runtime.metrics
        self.phase = DISCARDING
        #: Messages buffered between GET_STATE and STATE.
        self.pending: List[Envelope] = []
        #: Simulated time of our last GET_STATE request (latency metric).
        self._requested_at: Optional[float] = None

    @property
    def ready(self) -> bool:
        return self.phase == READY

    # -- joining side -----------------------------------------------------

    def mark_founder(self) -> None:
        """The first member of a group starts with valid (initial) state."""
        self.phase = READY

    #: If no checkpoint arrives within this long and we turn out to be
    #: the only member, the group died entirely: found it afresh.
    FOUNDER_FALLBACK_S = 1.0

    def request_state(self) -> None:
        """Ask the group for a checkpoint (recovering replica)."""
        replica = self.replica
        if self._requested_at is None:
            self._requested_at = replica.sim.now
        replica.time_source.begin_recovery()
        replica.endpoint.mcast(
            make_envelope(
                MsgType.GET_STATE,
                replica.group,
                replica.group,
                0,
                0,
                replica.node_id,
                body={"target": replica.node_id},
            )
        )
        replica.sim.schedule(self.FOUNDER_FALLBACK_S, self._founder_fallback)

    def _founder_fallback(self) -> None:
        """No existing member answered: if we really are alone, the whole
        group failed — found it afresh with initial state."""
        if self.ready or not self.replica.node.alive:
            return
        if (
            tuple(self.replica.endpoint.view.members)
            != (self.replica.node_id,)
            or not self.replica._component_primary
        ):
            # Others exist, or we sit in a minority component where the
            # group may be running without us (live cold start before
            # the rings merge): a transfer should still be coming.
            # Re-ask in case our GET_STATE raced a membership change.
            self.request_state()
            return
        self.replica.time_source.finish_recovery()
        self.phase = READY
        pending, self.pending = self.pending, []
        for queued in pending:
            self.replica.dispatch(queued)

    def restart(self) -> None:
        """Drop our (stale) readiness and recover afresh — used when a
        replica re-enters the primary component after a partition during
        which other members kept processing."""
        self.phase = DISCARDING
        self.pending = []
        self._requested_at = None
        # Any clock operation still blocked belongs to the abandoned
        # protocol position; replaying it would consume the wrong round.
        self.replica.time_source.abort_in_flight()
        self.request_state()

    def begin_queuing(self) -> None:
        """Our own GET_STATE was delivered: the checkpoint will cover the
        total order up to this point; queue everything after it."""
        if self.phase == DISCARDING:
            self.phase = QUEUING

    def observe_while_recovering(self, envelope: Envelope) -> None:
        """A message arrived before we hold state: queue or discard."""
        if self.phase == QUEUING:
            self.pending.append(envelope)

    def on_state(self, envelope: Envelope) -> None:
        """A checkpoint arrived; adopt it if it is addressed to us."""
        if self.ready:
            return
        body = envelope.body
        if body["target"] != self.replica.node_id:
            return
        checkpoint: Checkpoint = body["checkpoint"]
        replica = self.replica
        replica.app.set_state(checkpoint.app_state)
        replica.request_index = checkpoint.request_index
        replica.apply_checkpoint_index(checkpoint.processed_index)
        replica.apply_extra_state(checkpoint.extra)
        if checkpoint.time_state is not None:
            replica.time_source.set_transfer_state(checkpoint.time_state)
        replica.time_source.finish_recovery()
        self.phase = READY
        replica.stats.state_transfers_applied += 1
        if self.metrics.enabled and self._requested_at is not None:
            self.metrics.observe(M_TRANSFER_LATENCY,
                                 replica.sim.now - self._requested_at,
                                 node=replica.node_id)
        self._requested_at = None
        if self.tracer.enabled:
            self.tracer.emit(
                "state.applied", replica.node_id, group=replica.group,
                request_index=checkpoint.request_index,
                replayed=len(self.pending), t=replica.sim.now,
            )
        pending, self.pending = self.pending, []
        for queued in pending:
            replica.dispatch(queued)

    # -- serving side --------------------------------------------------------

    def capture(self) -> Checkpoint:
        """The replica's state as one checkpoint: what a joiner adopts
        from a STATE message and a passive backup from a periodic
        CHECKPOINT."""
        replica = self.replica
        return Checkpoint(
            app_state=replica.app.get_state(),
            request_index=replica.request_index,
            time_state=replica.time_source.get_transfer_state(),
            processed_index=replica.checkpoint_index(),
            extra=replica.capture_extra_state(),
        )

    def handle_get_state(self, envelope: Envelope):
        """Generator run in the main thread at the quiescent point."""
        replica = self.replica
        target = envelope.body["target"]
        if target == replica.node_id:
            return  # our own request echoed back; nothing to serve
        if not self.ready:
            return  # we are recovering ourselves; someone else serves
        # Special CCS round: a clock value immediately before the checkpoint.
        if replica.runs_special_round():
            # A locally-served fast-path value would skip the round the
            # recovering replica integrates its clock from: force one.
            yield replica.time_source.read(
                replica.main_thread_id, "gettimeofday",
                replica.node.read_clock_us(), fast_ok=False)
        # The designated member (view primary, excluding the target) sends.
        members = [m for m in replica.endpoint.view.members if m != target]
        if not members or members[0] != replica.node_id:
            return
        checkpoint = self.capture()
        replica.stats.state_transfers_served += 1
        envelope = make_envelope(
            MsgType.STATE,
            replica.group,
            replica.group,
            0,
            replica.stats.state_transfers_served,
            replica.node_id,
            body={"target": target, "checkpoint": checkpoint},
        )
        replica.endpoint.mcast(envelope)
        if self.metrics.enabled:
            self.metrics.observe(M_TRANSFER_BYTES, envelope.wire_size(),
                                 node=replica.node_id)
        if self.tracer.enabled:
            self.tracer.emit(
                "state.served", replica.node_id, group=replica.group,
                target=target, request_index=checkpoint.request_index,
                t=replica.sim.now,
            )
        replica.after_state_served(checkpoint)
