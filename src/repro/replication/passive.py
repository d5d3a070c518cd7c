"""Passive replication: primary/backup with checkpointing and replay.

Only the primary (the oldest member of the group view) processes
requests and sends replies.  Backups log delivered requests and apply
the primary's periodic checkpoints.  When the primary fails, the oldest
surviving backup promotes itself — deterministically, because every
member sees the identical view sequence — restores from the last
checkpoint it applied, and replays its logged requests.

Replayed clock-related operations consume the CCS messages the old
primary's rounds produced (they were delivered to the backups too and
sit buffered in the time service), so the new primary reproduces the
exact clock values the old primary saw — this is how the consistent time
service removes the roll-back / fast-forward hazard of plain
primary/backup clock handling (paper Sections 1 and 3.3).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from .. import obs
from .envelope import Envelope, MessageHeader, MsgType, make_envelope
from .group import GroupRuntime, GroupView
from .replica import Application, Replica
from .state_transfer import Checkpoint
from .timesource import TimeSource


# -- pushed instruments (zero-cost while the registry is off); checkpoint
# and promotion counts are read from ReplicaStats -----------------------
M_CHECKPOINT_BYTES = obs.histogram(
    "replication_checkpoint_bytes", "estimated checkpoint wire size",
    unit="bytes", buckets=(64, 128, 256, 512, 1_024, 4_096, 16_384, 65_536))
M_TAKEOVER_LATENCY = obs.histogram(
    "replication_takeover_latency_s",
    "last evidence of the old primary to promotion of the new one",
    unit="s",
    buckets=(0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0))
M_REPLAY_DEPTH = obs.histogram(
    "replication_promotion_replay_depth",
    "logged requests replayed at promotion",
    buckets=(0, 1, 2, 5, 10, 25, 50, 100, 250))


class PassiveReplica(Replica):
    """A member of a passively replicated (primary/backup) group."""

    style = "passive"

    #: Passive primaries take periodic checkpoints *between* requests;
    #: overlapping executions could capture a torn snapshot mid-request,
    #: so the primary executes strictly serially.  (Reads still coalesce
    #: when several arrive while one blocks elsewhere, e.g. at replay.)
    supports_pipelining = False

    def __init__(
        self,
        runtime: GroupRuntime,
        group: str,
        app: Application,
        time_source_factory: Callable[[Replica], TimeSource],
        *,
        checkpoint_interval: int = 10,
        **options,
    ):
        super().__init__(runtime, group, app, time_source_factory, **options)
        self.checkpoint_interval = checkpoint_interval
        #: Backup-side log of delivered-but-unprocessed requests.
        self.request_log: List[Tuple[int, Envelope]] = []
        #: Highest request index incorporated into our state (processed
        #: if primary; covered by an applied checkpoint if backup).
        self.processed_index = 0
        self._was_primary = False
        #: Simulated time of the last evidence of a *different* primary
        #: (view membership or an applied checkpoint) — the baseline for
        #: the failover takeover-latency measurement.
        self._primary_evidence_at: Optional[float] = None

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    def _handle_request(self, envelope: Envelope, index: int) -> None:
        if self.is_primary:
            self._enqueue_request(envelope, index)
        else:
            self.request_log.append((index, envelope))
            self.stats.requests_logged += 1

    def _reply_route(self, header: MessageHeader) -> Optional[Callable]:
        # Failovers mid-request: the reply decision uses the *current*
        # primaryship, so a freshly promoted backup answers the requests
        # it replays.
        return self.endpoint.mcast if self.is_primary else None

    def _after_execute(self, envelope: Envelope, index: Optional[int]) -> None:
        if index is not None:
            self.processed_index = index
        if (
            self.is_primary
            and self.checkpoint_interval > 0
            and index is not None
            and index % self.checkpoint_interval == 0
        ):
            self._send_checkpoint(self.state_transfer.capture())

    def _send_checkpoint(self, checkpoint: Checkpoint) -> None:
        envelope = make_envelope(
            MsgType.CHECKPOINT,
            self.group,
            self.group,
            0,
            self.processed_index,
            self.node_id,
            body=checkpoint,
        )
        self.endpoint.mcast(envelope)
        self.stats.checkpoints_sent += 1
        metrics = self.runtime.metrics
        if metrics.enabled:
            metrics.observe(M_CHECKPOINT_BYTES, envelope.wire_size(),
                            node=self.node_id)
        if self.tracer.enabled:
            self.tracer.emit(
                "replica.checkpoint", self.node_id, group=self.group,
                covers=self.processed_index,
            )

    def _handle_checkpoint(self, envelope: Envelope) -> None:
        if envelope.sender == self.node_id:
            return  # our own checkpoint echoed back
        self._primary_evidence_at = self.sim.now
        checkpoint: Checkpoint = envelope.body
        self.app.set_state(checkpoint.app_state)
        self.processed_index = checkpoint.processed_index
        if checkpoint.time_state is not None:
            # The round counters let the backup discard CCS messages whose
            # values are already baked into the checkpointed state.
            self.time_source.set_transfer_state(checkpoint.time_state)
        self.request_log = [
            (index, env)
            for index, env in self.request_log
            if index > checkpoint.processed_index
        ]
        self.stats.checkpoints_applied += 1

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------

    def _view_changed(self, view: GroupView) -> None:
        if self.is_primary and not self._was_primary and self.state_transfer.ready:
            self._promote()
        elif view.primary is not None and view.primary != self.node_id:
            self._primary_evidence_at = self.sim.now
        self._was_primary = self.is_primary

    def _promote(self) -> None:
        """Become the primary: replay logged requests beyond the last
        checkpoint, then continue with live traffic."""
        self.stats.promotions += 1
        backlog = [
            (index, env) for index, env in self.request_log
            if index > self.processed_index
        ]
        metrics = self.runtime.metrics
        if metrics.enabled:
            metrics.observe(M_REPLAY_DEPTH, len(backlog), node=self.node_id)
            if self._primary_evidence_at is not None:
                metrics.observe(
                    M_TAKEOVER_LATENCY,
                    self.sim.now - self._primary_evidence_at,
                    node=self.node_id)
        if self.tracer.enabled:
            self.tracer.emit(
                "replica.promote", self.node_id, group=self.group,
                replay_from=self.processed_index, replay_depth=len(backlog),
                t=self.sim.now,
            )
        self.request_log = []
        for index, envelope in backlog:
            self._enqueue_request(envelope, index)

    # ------------------------------------------------------------------
    # State transfer integration
    # ------------------------------------------------------------------

    def checkpoint_index(self) -> int:
        return self.processed_index

    def apply_checkpoint_index(self, index: int) -> None:
        self.processed_index = index

    def runs_special_round(self) -> bool:
        # Backups' request-queue position differs from the primary's, so
        # only the primary performs the special round (its CCS message
        # still reaches the recovering replica for clock integration).
        return self.is_primary

    def after_state_served(self, checkpoint: Checkpoint) -> None:
        # Serving a state transfer produced a fresh checkpoint anyway:
        # broadcast it so backups skip past the special round.
        self._send_checkpoint(checkpoint)

    def capture_extra_state(self) -> Any:
        """Hand a joiner the backlog its checkpoint does not cover."""
        if self.is_primary:
            return []
        return [
            (index, env) for index, env in self.request_log
            if index > self.processed_index
        ]

    def apply_extra_state(self, extra: Any) -> None:
        if extra:
            self.request_log = list(extra)
