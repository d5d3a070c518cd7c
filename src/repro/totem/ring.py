"""The Totem single-ring protocol processor: total ordering on a ring.

One :class:`TotemProcessor` runs per node (the paper runs "one and only
one instance of Totem on each node").  The processor implements:

* **Total ordering** — a token rotates around the logical ring; only the
  token holder may broadcast, assigning consecutive sequence numbers, so
  every processor delivers the same messages in the same order (*agreed
  delivery*).
* **Reliability** — receivers request missing sequence numbers through
  the token's retransmission-request (rtr) list; the token's ``aru``
  watermark tracks what everyone has received.
* **Token retransmission** — the token is retransmitted if no progress
  evidence follows its transmission, masking token loss.
* **Membership hand-off** — failures, joins and partitions are detected
  here (token-loss timeout, foreign messages) and handled by the
  :class:`~repro.totem.membership.MembershipEngine`, which reforms the
  ring and recovers old-ring messages (extended virtual synchrony).

The consistent time service relies on exactly the guarantee this module
provides (paper Section 2): "the reliable ordered delivery protocol of
the multicast group communication system ensures that the replicas
receive the same messages in the same order."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from collections import deque

from .. import obs
from ..errors import TotemError
from ..sim.node import Node
from .config import TotemConfig
from .messages import (
    CommitToken,
    ConfigurationChange,
    JoinMessage,
    LostMessage,
    RegularMessage,
    RegularToken,
    RingBeacon,
    RingId,
)


# -- pushed instrument (zero-cost while the registry is off); the
# counter families are read from ProcessorStats, see COUNTERS below ------
M_TOKEN_INTERVAL = obs.histogram(
    "totem_token_rotation_us", "interval between token visits at one node",
    unit="us",
    buckets=(50, 100, 200, 400, 800, 1_600, 3_200, 6_400, 12_800, 25_600))


class ProcessorState(enum.Enum):
    """Totem processor states (Amir et al. 1995, Fig. 2)."""

    GATHER = "gather"
    COMMIT = "commit"
    RECOVER = "recover"
    OPERATIONAL = "operational"


@dataclass
class RingConfig:
    """The installed ring: identity plus members in token-passing order."""

    ring_id: RingId
    members: Tuple[str, ...]

    def successor(self, member: str) -> str:
        index = self.members.index(member)
        return self.members[(index + 1) % len(self.members)]


@dataclass
class ProcessorStats:
    """Wire/delivery statistics, used by the evaluation harness."""

    messages_multicast: int = 0
    retransmissions: int = 0
    tokens_forwarded: int = 0
    token_retransmissions: int = 0
    messages_delivered: int = 0
    membership_changes: int = 0
    sends_cancelled: int = 0
    gathers: int = 0
    flow_control_deferrals: int = 0


#: ProcessorStats field -> the registry family read from it.
COUNTERS = obs.read_counters({
    "messages_multicast": ("totem_messages_multicast_total",
                           "regular messages broadcast on the ring"),
    "retransmissions": ("totem_retransmissions_total",
                        "regular messages retransmitted (rtr served)"),
    "tokens_forwarded": ("totem_tokens_forwarded_total",
                         "token visits forwarded to the successor"),
    "token_retransmissions": (
        "totem_token_retransmissions_total",
        "token retransmissions (regular and commit tokens) after missing "
        "progress evidence"),
    "messages_delivered": ("totem_messages_delivered_total",
                           "messages delivered in agreed order"),
    "sends_cancelled": ("totem_sends_cancelled_total",
                        "queued payloads withdrawn before transmission"),
    "flow_control_deferrals": (
        "totem_flow_control_deferrals_total",
        "token visits that left payloads queued (window exhausted)"),
    "gathers": ("totem_membership_gathers_total", "gather phases entered"),
    "membership_changes": ("totem_membership_installs_total", "rings installed"),
})


class TotemProcessor:
    """One node's Totem protocol entity.

    Applications interact through :meth:`mcast`, :meth:`cancel_pending`
    and the ``on_deliver`` / ``on_config_change`` callbacks; everything
    else is protocol machinery.

    The processor keeps at most 29 instance attributes: CPython 3.11
    stores instance values inline only below that, and a 30th cost
    ~4.5 % CPU per op on ``sim-rounds-c1``.  Hooks nothing in ``src/``
    sets are class attributes for that reason.
    """

    #: Safe delivery (Totem's stronger guarantee): fired for a message
    #: once every ring member is known to have received it — i.e. its
    #: sequence number has fallen below the aru watermark on two
    #: consecutive token visits.  Safe delivery trails agreed delivery
    #: by one-to-two token rotations.
    on_safe_deliver: Optional[Callable[[RegularMessage], None]] = None

    def __init__(
        self,
        node: Node,
        config: Optional[TotemConfig] = None,
        *,
        static_membership: Optional[List[str]] = None,
    ):
        from .membership import MembershipEngine  # local import: cyclic module pair

        self.node = node
        self.sim = node.sim
        self.me = node.node_id
        #: The host's telemetry bus, which the layers above take from here.
        self.tracer = node.obs.tracer
        self.metrics = node.obs.metrics
        self.config = config or TotemConfig()
        self.config.validate()

        self.state = ProcessorState.GATHER
        self.ring: Optional[RingConfig] = None
        self.stats = ProcessorStats()
        self.metrics.watch(self.stats, COUNTERS, node=self.me)

        # -- regular-ring state (reset on every ring install) -----------
        self.received: Dict[int, RegularMessage] = {}
        self.my_aru = 0
        self.high_seq = 0
        self.delivered_seq = 0
        self.safe_seq = 0
        self.last_token_seq = 0
        self._prev_visit_aru = 0
        self.send_queue: Deque[Any] = deque()
        #: Timestamps of token arrivals (for calibration measurements);
        #: populated only when the config asks for it.
        self.token_arrival_times: List[float] = []
        #: Previous token arrival, for the rotation-interval histogram.
        self._last_token_at: Optional[float] = None

        # -- application callbacks ---------------------------------------
        self.on_deliver: Optional[Callable[[RegularMessage], None]] = None
        self.on_config_change: Optional[Callable[[ConfigurationChange], None]] = None
        #: Raw-reception hook: fires when a message first arrives, before
        #: total-order delivery.  Used by the time service's "effective
        #: duplicate detection" [Zhao et al. 2002]: a replica that *sees*
        #: another proposal for its round on the wire can withdraw its
        #: own still-queued CCS message immediately (a queued message
        #: would be sequenced after one already observed, so it would
        #: lose the round with certainty).
        self.on_raw_message: Optional[Callable[[Any], None]] = None

        # -- timers: one reschedulable kernel deadline each ---------------
        self._token_loss = self.sim.deadline(self._on_token_loss)
        self._retransmit = self.sim.deadline(self._on_retransmit_timer)
        self._beacon = self.sim.deadline(self._on_beacon)
        #: What the retransmit timer re-sends while it is armed.
        self._last_sent_token: Optional[RegularToken] = None
        self._retransmit_count = 0

        self.membership = MembershipEngine(
            self, tuple(static_membership or [self.me]))
        self.started = False
        node.set_receiver(self._on_frame)

    # ------------------------------------------------------------------
    # Application-facing API
    # ------------------------------------------------------------------

    @property
    def static_membership(self) -> Tuple[str, ...]:
        """The configured processor universe (kept by the membership
        engine, which judges primariness against it)."""
        return self.membership.static_membership

    def start(self) -> None:
        """Boot the processor: begin the initial gather phase."""
        self.started = True
        self.membership.start_gather(reason="boot")

    def stop(self) -> None:
        """Shut the daemon down for good (its host crashed or is being
        restarted): disarm every timer, so nothing of this processor is
        left to run beside the one a restart builds."""
        self.started = False
        for timer in (self._token_loss, self._retransmit, self._beacon):
            timer.clear()
        self.membership.stop()

    def mcast(self, payload: Any) -> None:
        """Queue ``payload`` for totally-ordered multicast.

        It is transmitted at this processor's next token visit (subject
        to flow control) and delivered at every processor in the agreed
        total order.
        """
        self.send_queue.append(payload)

    def cancel_pending(self, predicate: Callable[[Any], bool]) -> int:
        """Withdraw queued-but-untransmitted payloads matching
        ``predicate``.

        This implements the "effective duplicate detection mechanism"
        (paper Section 4.3): a replica that sees another replica's CCS
        message for the current round ordered first cancels its own
        still-queued CCS message instead of wasting a broadcast.

        Returns the number of payloads withdrawn.
        """
        kept = deque(p for p in self.send_queue if not predicate(p))
        cancelled = len(self.send_queue) - len(kept)
        self.send_queue = kept
        self.stats.sends_cancelled += cancelled
        return cancelled

    @property
    def alive(self) -> bool:
        """Whether this processor may still act: its host is up and its
        daemon has not been stopped.  Fail-stop means a processor never
        outlives a crash, however soon the host comes back — a restart
        calls :meth:`stop`, so the frames and token visits still queued
        for it find it dead rather than resume beside the processor the
        restart built."""
        return self.node.alive and self.started

    @property
    def is_operational(self) -> bool:
        return self.state is ProcessorState.OPERATIONAL

    @property
    def members(self) -> Tuple[str, ...]:
        """Members of the installed ring (empty before the first ring)."""
        return self.ring.members if self.ring else ()

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------

    def _on_frame(self, frame) -> None:
        if not self.started:
            return  # the Totem daemon has not been launched on this node
        payload = frame.payload
        if isinstance(payload, RegularToken):
            self._handle_regular_token(payload)
        elif isinstance(payload, RegularMessage):
            self._handle_regular_message(payload)
        elif isinstance(payload, JoinMessage):
            self.membership.handle_join(payload)
        elif isinstance(payload, CommitToken):
            self.membership.handle_commit_token(payload)
        elif isinstance(payload, RingBeacon):
            self._handle_beacon(payload)
        else:
            raise TotemError(f"unknown frame payload {payload!r}")

    def _handle_beacon(self, beacon: RingBeacon) -> None:
        """A foreign ring's beacon means a healed partition: remerge."""
        if (
            self.state is ProcessorState.OPERATIONAL
            and self.ring is not None
            and beacon.ring_id != self.ring.ring_id
        ):
            self.membership.start_gather(reason=f"foreign beacon {beacon.ring_id}")

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------

    def multicast_raw(self, message) -> None:
        self.node.iface.multicast(message, size_bytes=message.wire_size())

    def unicast_raw(self, dst: str, message) -> None:
        self.node.iface.unicast(dst, message, size_bytes=message.wire_size())

    # ------------------------------------------------------------------
    # Regular message path
    # ------------------------------------------------------------------

    def _handle_regular_message(self, msg: RegularMessage) -> None:
        if self.state in (ProcessorState.RECOVER, ProcessorState.COMMIT):
            self.membership.handle_recovery_message(msg)
            return
        if self.ring is None or msg.ring_id != self.ring.ring_id:
            # A message from a ring we are not on: evidence of another
            # component (partition remerge) or of a ring we missed.
            if self.state is ProcessorState.OPERATIONAL and (
                self.ring is None or msg.ring_id.seq >= self.ring.ring_id.seq
            ):
                self.membership.start_gather(reason=f"foreign message {msg.ring_id}")
            return
        self._token_evidence()
        self._store_message(msg)
        self._try_deliver()

    def _store_message(self, msg: RegularMessage) -> None:
        if msg.seq in self.received or msg.seq <= self.delivered_seq:
            return  # duplicate (retransmission we already have)
        self.received[msg.seq] = msg
        self.high_seq = max(self.high_seq, msg.seq)
        if self.on_raw_message is not None and msg.sender != self.me:
            self.on_raw_message(msg.payload)
        while self.my_aru + 1 in self.received or self.my_aru + 1 <= self.delivered_seq:
            self.my_aru += 1

    def _try_deliver(self) -> None:
        """Agreed delivery: hand contiguous messages to the application."""
        while self.delivered_seq + 1 in self.received:
            self.delivered_seq += 1
            msg = self.received[self.delivered_seq]
            if isinstance(msg.payload, LostMessage):
                continue  # recovery tombstone: skipped everywhere alike
            self.stats.messages_delivered += 1
            if self.on_deliver is not None:
                self.on_deliver(msg)

    # ------------------------------------------------------------------
    # Token path
    # ------------------------------------------------------------------

    def _handle_regular_token(self, token: RegularToken) -> None:
        if self.state is not ProcessorState.OPERATIONAL or self.ring is None:
            return
        if token.ring_id != self.ring.ring_id:
            if token.ring_id.seq > self.ring.ring_id.seq:
                self.membership.start_gather(reason=f"foreign token {token.ring_id}")
            return
        if token.token_seq <= self.last_token_seq:
            return  # a retransmitted token we already hold
        self.last_token_seq = token.token_seq
        if self.config.record_token_times:
            self.token_arrival_times.append(self.sim.now)
        if self.metrics.enabled and self._last_token_at is not None:
            self.metrics.observe(
                M_TOKEN_INTERVAL, (self.sim.now - self._last_token_at) * 1e6,
                node=self.me)
        self._last_token_at = self.sim.now
        self._token_evidence()
        # Simulated CPU cost of the token visit, then forward.
        self.sim.schedule(self.config.token_processing_s, self._process_token, token)

    def _process_token(self, token: RegularToken) -> None:
        if (
            self.state is not ProcessorState.OPERATIONAL
            or self.ring is None
            or token.ring_id != self.ring.ring_id
            or not self.node.alive  # tokens only reach the live incarnation
        ):
            return

        rtr = set(token.rtr)
        out: List[RegularMessage] = []  # multicast together after step 2

        # 1. Serve retransmission requests we can satisfy.
        for seq in sorted(rtr):
            msg = self.received.get(seq)
            if msg is not None:
                out.append(msg._replace(retransmission=True))
                self.stats.retransmissions += 1
                if self.tracer.enabled:
                    self.tracer.emit(
                        "totem.retransmit", self.me, seq=seq,
                        ring=str(self.ring.ring_id),
                        token_seq=token.token_seq,
                    )
                rtr.discard(seq)

        # 2. Broadcast new messages within the flow-control window.
        new_seq = token.seq
        sent = 0
        while self.send_queue and sent < self.config.window_size:
            payload = self.send_queue.popleft()
            new_seq += 1
            msg = RegularMessage(self.ring.ring_id, new_seq, self.me, payload)
            # Record our own message now: no transport hands a sender
            # its own multicast (repro.net.transport), so this is the
            # only copy this node files.
            self._store_message(msg)
            out.append(msg)
            self.stats.messages_multicast += 1
            sent += 1
        if self.send_queue and sent >= self.config.window_size:
            # Flow control: the window closed with payloads still queued.
            self.stats.flow_control_deferrals += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "totem.flow_control", self.me, seq=new_seq,
                    deferred=len(self.send_queue),
                    window=self.config.window_size,
                )
        if out:
            self.node.iface.multicast_many(out, [m.wire_size() for m in out])
        self._try_deliver()

        # 3. Request retransmission of anything we are missing.
        for missing in range(self.my_aru + 1, new_seq + 1):
            if missing not in self.received:
                rtr.add(missing)

        # 4. Update the aru watermark (all-received-up-to).
        aru, aru_id = token.aru, token.aru_id
        if self.my_aru < aru:
            aru, aru_id = self.my_aru, self.me
        elif aru_id == self.me:
            aru = self.my_aru
            if aru >= new_seq:
                aru_id = None
        elif aru_id is None:
            aru = self.my_aru

        # 5. Safe delivery and garbage collection: min(aru over the last
        #    two visits) bounds what every member has received.  Messages
        #    at or below it (and already agreed-delivered here) are safe;
        #    fire the safe callback in order, then reclaim them.
        stable = min(self._prev_visit_aru, aru, self.delivered_seq)
        self._prev_visit_aru = aru
        while self.safe_seq < stable:
            self.safe_seq += 1
            msg = self.received.get(self.safe_seq)
            if (
                msg is not None
                and self.on_safe_deliver is not None
                and not isinstance(msg.payload, LostMessage)
            ):
                self.on_safe_deliver(msg)
        for seq in [s for s in self.received if s <= stable]:
            del self.received[seq]

        # 6. Forward the token.
        next_token = RegularToken(
            ring_id=self.ring.ring_id,
            token_seq=token.token_seq + 1,
            seq=new_seq,
            aru=aru,
            aru_id=aru_id,
            rtr=tuple(sorted(rtr)),
        )
        self._forward_token(next_token)

    def _forward_token(self, token: RegularToken) -> None:
        successor = self.ring.successor(self.me)
        self.unicast_raw(successor, token)
        self.stats.tokens_forwarded += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "totem.token.forward", self.me, to=successor,
                token_seq=token.token_seq, seq=token.seq, aru=token.aru,
                rtr=len(token.rtr), ring=str(token.ring_id),
            )
        self._last_sent_token = token
        self._retransmit_count = 0
        self._retransmit.reset(self.config.token_retransmit_timeout_s)

    def inject_regular_token(self) -> None:
        """Create and circulate the first token of a fresh ring.

        Called by the membership engine on the ring representative once
        recovery completes.
        """
        if self.ring is None:
            raise TotemError("cannot inject token without an installed ring")
        token = RegularToken(
            ring_id=self.ring.ring_id,
            token_seq=self.last_token_seq + 1,
            seq=0,
            aru=0,
            aru_id=None,
            rtr=(),
        )
        self.last_token_seq = token.token_seq
        self.sim.schedule(self.config.token_processing_s, self._process_token, token)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------

    def _token_evidence(self) -> None:
        """Progress observed on the ring: cancel token retransmission and
        re-arm the token-loss timeout."""
        self._retransmit.clear()
        self._token_loss.reset(self.config.token_loss_timeout_s)

    def _on_token_loss(self) -> None:
        if not self.alive or self.state is not ProcessorState.OPERATIONAL:
            return
        self.membership.start_gather(reason="token loss")

    def _on_retransmit_timer(self) -> None:
        if not self.alive or self.state is not ProcessorState.OPERATIONAL:
            return
        if self._retransmit_count >= self.config.token_retransmit_limit:
            return  # give up; the token-loss timeout will trigger membership
        self._retransmit_count += 1
        self.stats.token_retransmissions += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "totem.token.retransmit", self.me,
                token_seq=self._last_sent_token.token_seq,
                attempt=self._retransmit_count,
                ring=str(self._last_sent_token.ring_id),
            )
        self.unicast_raw(self.ring.successor(self.me), self._last_sent_token)
        self._retransmit.reset(self.config.token_retransmit_timeout_s)

    # ------------------------------------------------------------------
    # Ring installation (called by the membership engine)
    # ------------------------------------------------------------------

    def install_ring(self, ring_id: RingId, members: Tuple[str, ...]) -> None:
        """Reset regular-ring state for a newly agreed ring and become
        operational on it."""
        self.ring = RingConfig(ring_id, tuple(members))
        self.received = {}
        self.my_aru = 0
        self.high_seq = 0
        self.delivered_seq = 0
        self.safe_seq = 0
        self.last_token_seq = 0
        self._prev_visit_aru = 0
        self._retransmit.clear()
        self._last_token_at = None
        self.state = ProcessorState.OPERATIONAL
        self.stats.membership_changes += 1
        self._token_loss.reset(self.config.token_loss_timeout_s)
        if (
            self.me == ring_id.representative
            and self.config.beacon_interval_s > 0
        ):
            self._beacon.reset(self.config.beacon_interval_s)

    def _on_beacon(self) -> None:
        if (
            not self.alive
            or self.state is not ProcessorState.OPERATIONAL
            or self.ring is None
            or self.me != self.ring.ring_id.representative
        ):
            return
        self.multicast_raw(RingBeacon(self.ring.ring_id, self.me))
        self._beacon.reset(self.config.beacon_interval_s)

    def deliver_config_change(self, change: ConfigurationChange) -> None:
        if self.on_config_change is not None:
            self.on_config_change(change)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        ring = self.ring.ring_id if self.ring else None
        return f"<TotemProcessor {self.me} {self.state.value} ring={ring}>"
