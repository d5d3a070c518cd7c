"""The Consistent Time Service (the paper's contribution, Section 3).

Every clock-related operation is served by a *round* of the consistent
clock synchronization algorithm:

1. The replica reads its physical hardware clock and computes the local
   logical clock value ``physical + my_clock_offset`` (Figure 2, 3-4).
2. It multicasts the value in a CCS message via Totem's reliable ordered
   multicast — *unless* a CCS message for the round has already arrived
   (Figure 2, 11-13); queued-but-untransmitted CCS messages are also
   withdrawn when the winner's message is ordered first (the "effective
   duplicate detection mechanism" of Section 4.3).
3. The first CCS message ordered for the round wins: its value is the
   group clock value at **every** replica; its sender is the round's
   *synchronizer*.
4. Each replica recomputes ``my_clock_offset = group − physical``
   (Figure 2, 7) and returns the group value to the application.

There is one round engine.  An operation parks under a
replica-independent operation id; the handler opens a round when
operations are parked and none is in flight; the winning message's
*covering point* names the operations the round serves.  A replica
deployed with ``coalesce=False`` executes requests serially and parks
one operation at a time, so every round covers exactly one — the
paper's Figure 2; a replica that overlaps reads shares rounds.

Who proposes is the replica's replication style: in an active group
every replica competes to be the synchronizer; in a passive or
semi-active group only the primary sends CCS messages, and a backup that
takes over first checks whether a CCS message for its round has already
been delivered (Section 3.3) before sending its own.

Integration of new clocks (Section 3.2) is implemented through
``begin_recovery``/``finish_recovery`` plus the transfer-state snapshot:
a recovering replica adopts the group clock from delivered CCS messages
(deriving its own offset from its own physical clock) and inherits the
replica-independent round counters from the checkpoint.  A passive
backup applies each periodic checkpoint's snapshot the same way.

One departure from the paper: there is no common input buffer (Figures
2 and 3).  Thread ids are deterministic, so a thread's handler is
created the first time its id is seen — by a read, an accepted winner
or a transferred state — and its input buffer is the only place the
thread's winners wait.  With two buffers, a transfer onto a replica
that already held a handler could queue a newer winner ahead of older
transferred rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple, TYPE_CHECKING

from ..errors import ConsistencyError
from .. import obs
from ..replication.envelope import Envelope, MsgType, make_envelope
from ..replication.timesource import ClockRead, TimeSource
from ..sim.clock import ClockValue
from ..sim.kernel import Event
from .ccs_handler import (
    CCSHandler,
    ConsumedRound,
    PendingOp,
    RoundInFlight,
)
from .drift import DriftBound, DriftCompensation, NoCompensation
from .group_clock import (CERTIFIED_SLACK_US, STABILIZE_ROUND_GAP,
                          STABILIZE_VALUE_GAP_US, GroupClockState)
from .guard import ByzantineGuard
from .interposition import resolve_call
from .messages import CCSMessage, OpId
from .recovery import TimeTransferState

if TYPE_CHECKING:  # pragma: no cover
    from ..replication.group import GroupView
    from ..replication.replica import Replica

# -- pushed histograms (zero-cost while the registry is off); the
# counter and gauge families are read, see COUNTERS and GAUGES below ---
M_ROUND_LATENCY = obs.histogram(
    "cts_round_latency_us",
    "CCS round latency: interposition to group-value delivery", unit="us",
    buckets=(50, 100, 200, 400, 800, 1_600, 3_200, 6_400, 12_800, 25_600,
             51_200))
M_BATCH = obs.histogram(
    "ccs_round_batch_size", "operations served per consumed CCS round",
    unit="ops", buckets=(1, 2, 4, 8, 16, 32, 64, 128))
M_SKEW_ABS = obs.histogram(
    "cts_estimated_skew_abs_us",
    "absolute estimated inter-replica skew per round", unit="us",
    buckets=(10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000))
M_FAST_STALENESS = obs.histogram(
    "cts_fast_path_staleness_us",
    "staleness of fast-path reads (physical-clock time since the last "
    "committed round)", unit="us",
    buckets=(50, 100, 250, 500, 1_000, 2_000, 4_000, 8_000))


@dataclass
class CTSStats:
    """Counters the evaluation harness reads (Section 4.3)."""

    rounds_completed: int = 0
    #: Round winners accepted (first ordered), consumed or buffered.
    rounds_accepted: int = 0
    #: CCS messages handed to Totem for transmission.
    ccs_sent: int = 0
    #: CCS messages withdrawn before transmission (winner ordered first).
    ccs_suppressed: int = 0
    #: Rounds satisfied from the input buffer without constructing a
    #: CCS message at all (Figure 2, line 11 short-circuit).
    rounds_from_buffer: int = 0
    #: Received CCS messages discarded as duplicates (Figure 3, line 10).
    duplicates_discarded: int = 0
    #: Offset adoptions performed while recovering (special rounds).
    recovery_adoptions: int = 0
    #: Clock operations completed (>= rounds_completed when rounds are shared).
    ops_completed: int = 0
    #: Operations served by a round they did not initiate (amortization).
    ops_coalesced: int = 0
    #: Reads served by the drift-bounded local fast path.
    fast_path_hits: int = 0
    #: Fast-path attempts that fell back to a full round.
    fast_path_fallbacks: int = 0
    #: Ordered round winners rejected by the Byzantine sanity filter,
    #: by reason (too-high, too-low).
    winners_rejected: Dict[str, int] = field(default_factory=dict)
    #: Self-stabilization repairs of scrambled local state, by what was
    #: repaired (round-counter, watermark, floors, fast-floor, anchor).
    stabilizations: Dict[str, int] = field(default_factory=dict)
    #: Blocked clock operations aborted (abandoned protocol positions).
    rounds_aborted: int = 0

    @property
    def ccs_transmitted(self) -> int:
        """CCS messages that actually reached the wire."""
        return self.ccs_sent - self.ccs_suppressed

    @property
    def ccs_per_op(self) -> float:
        """Transmitted CCS messages per completed clock operation."""
        if not self.ops_completed:
            return 0.0
        return self.ccs_transmitted / self.ops_completed


#: CTSStats field -> the registry family read from it.
COUNTERS = obs.read_counters({
    "rounds_completed": ("ccs_rounds_total", "CCS rounds completed"),
    "ccs_sent": ("ccs_sent_total", "CCS messages handed to Totem for transmission"),
    "ccs_suppressed": (
        "ccs_suppressed_total",
        "CCS messages withdrawn before transmission (duplicate suppression)"),
    "duplicates_discarded": (
        "ccs_duplicates_total",
        "received CCS messages discarded as round duplicates"),
    "rounds_from_buffer": (
        "ccs_rounds_from_buffer_total",
        "rounds satisfied from the input buffer without constructing a "
        "CCS message"),
    "recovery_adoptions": ("ccs_recovery_adoptions_total",
                           "group-clock adoptions performed while recovering"),
    "rounds_aborted": (
        "ccs_rounds_aborted_total",
        "blocked clock operations aborted (abandoned protocol positions)"),
    "ops_completed": ("cts_ops_total", "clock operations completed"),
    "ops_coalesced": (
        "ccs_coalesced_ops_total",
        "operations served by a round they did not initiate (round "
        "amortization)"),
    "fast_path_hits": ("cts_fast_path_hits_total",
                       "reads served by the drift-bounded local fast path"),
    "fast_path_fallbacks": (
        "cts_fast_path_fallbacks_total",
        "fast-path attempts that fell back to a full CCS round "
        "(staleness or drift bound exceeded)"),
    "winners_rejected": (
        "ccs_winners_rejected_total",
        "ordered CCS winners rejected by the Byzantine sanity filter, "
        "labelled by reason (too-high, too-low)", "reason"),
    "stabilizations": (
        "cts_stabilizations_total",
        "self-stabilization repairs of scrambled local state, labelled by "
        "what was repaired (round-counter, watermark, floors, fast-floor)",
        "what"),
})
#: GroupClockState / ConsistentTimeService attribute -> the gauge family
#: read from it; the staleness budget only from a fast-path service.
CLOCK_GAUGES = obs.read_gauges({"offset_us": (
    "cts_clock_offset_us", "my_clock_offset after the last committed round")})
GAUGES = obs.read_gauges({
    "last_skew_us": (
        "cts_estimated_skew_us",
        "estimated inter-replica skew at the last round: this replica's "
        "proposal minus the winning group value (signed)"),
    "drift_error_us": (
        "cts_drift_bound_error_us",
        "certified worst-case drift error of the last fast-path read"),
})
FAST_PATH_GAUGES = obs.read_gauges({"max_staleness_us": (
    "cts_max_staleness_us", "configured fast-path staleness budget")})


class ConsistentTimeService(TimeSource):
    """The group clock provider for one replica."""

    name = "consistent-time-service"

    #: The clock-rate error budget a fast-path read is certified within.
    drift_bound = DriftBound()

    def __init__(
        self,
        replica: "Replica",
        *,
        drift: Optional[DriftCompensation] = None,
        suppress_pending: bool = True,
        fast_path: bool = False,
        max_staleness_us: int = 2_000,
        byzantine: bool = False,
    ):
        self.replica = replica
        self.node_id = replica.node_id
        self.sim = replica.sim
        self.tracer = replica.tracer
        self.metrics = replica.runtime.metrics
        self.drift = drift or NoCompensation()
        self.suppress_pending = suppress_pending
        #: Serve bounded-staleness reads locally between rounds.
        self.fast_path = fast_path
        self.max_staleness_us = int(max_staleness_us)
        #: The winner sanity filter and self-stabilization policy;
        #: ``None`` in crash-only mode.
        self.guard = ByzantineGuard(self) if byzantine else None

        self.clock_state = GroupClockState()
        self.stats = CTSStats()
        self.metrics.watch(self.stats, COUNTERS, node=self.node_id)
        self.metrics.watch(self.clock_state, CLOCK_GAUGES, node=self.node_id)
        #: Our proposal minus the winner, at the last round we proposed
        #: for; the staleness the last fast-path read was checked at.
        self.last_skew_us: Optional[int] = None
        self.last_fast_staleness_us: Optional[int] = None
        self.metrics.watch(
            self, GAUGES + FAST_PATH_GAUGES if fast_path else GAUGES,
            node=self.node_id)
        #: CCS handler objects, one per logical thread (Section 3.1),
        #: created on first sight of the thread: the only place its
        #: winners wait.
        self._handlers: Dict[str, CCSHandler] = {}
        #: Duplicate detection: thread -> highest round accepted.
        self._accepted: Dict[str, int] = {}
        self._recovering = False
        #: Physical clock at the last committed round (fast-path anchor).
        self._last_commit_physical_us: Optional[int] = None

    @property
    def drift_error_us(self) -> Optional[int]:
        """The certified drift error of the last fast-path read."""
        elapsed = self.last_fast_staleness_us
        return None if elapsed is None else self.drift_bound.error_us(elapsed)

    # ------------------------------------------------------------------
    # TimeSource interface: one clock-related operation
    # ------------------------------------------------------------------

    def read(
        self,
        thread_id: str,
        call_name: str,
        physical_us: int,
        *,
        op_id: Optional[OpId] = None,
        fast_ok: bool = True,
        floor_us: Optional[int] = None,
    ) -> Event:
        """One clock operation.

        The operation is identified by a replica-independent id; whatever
        round *covers* that id — per the covering point carried by the
        round's winning CCS message — serves it the round's group value,
        so overlapping operations share rounds and still agree across
        replicas.  ``physical_us`` is the operation's one reading of the
        physical clock (Figure 2, line 3).  ``floor_us`` is the request's
        session floor: the reply is served strictly above it on every
        replica.
        """
        if floor_us is not None:
            # Session guarantee: the request carries the client's
            # last-seen value, and since the request is totally ordered
            # every replica raises its causal floor before proposing or
            # fast-serving — whichever replica's reply the client takes,
            # it exceeds the floor.
            self.clock_state.observe_causal_timestamp(floor_us)
        call = resolve_call(call_name)
        handler = self._handler(thread_id)
        op_id = handler.assign_op_id(op_id)
        result = ClockRead(self.sim)
        op = PendingOp(op_id, call, result, self.sim.now, floor_us)

        # Already covered by a consumed round (the op was issued late,
        # e.g. by a recovered replica replaying the request stream).
        entry = handler.lookup_consumed(op_id)
        if entry is not None:
            self.stats.rounds_from_buffer += 1
            self._serve(handler, op, entry.group_us,
                        round_number=entry.round_number)
            return result

        fast = self._try_fast_path(handler, physical_us) if fast_ok else None
        if fast is not None:
            fast_us, elapsed = fast
            self.stats.fast_path_hits += 1
            self.last_fast_staleness_us = elapsed
            if self.metrics.enabled:
                self.metrics.observe(M_FAST_STALENESS, elapsed,
                                     node=self.node_id)
            if self.recorder is not None:
                self.recorder.fast_served.append((self.sim.now, fast_us, elapsed))
            self._serve(handler, op, fast_us, fast=True)
            return result

        handler.park(op)
        self._pump(handler, physical_us, from_read=True)
        return result

    def _try_fast_path(
        self, handler: CCSHandler, physical_us: int
    ) -> Optional[Tuple[int, int]]:
        """A drift-bounded local value and the staleness it was checked
        at, or None to run a full round.

        Only quiescent handlers qualify (nothing parked, in flight or
        buffered): an op admitted to the fast path while a round is
        pending could be covered by that round's winner at another
        replica, breaking agreement on which value serves it.
        """
        if not self.fast_path or self._recovering:
            return None
        if handler.parked or handler.in_flight is not None:
            return None
        if handler.my_input_buffer:
            return None
        if (
            self.clock_state.last_group_us is None
            or self._last_commit_physical_us is None
        ):
            return None
        elapsed = physical_us - self._last_commit_physical_us
        value = None
        if 0 <= elapsed <= self.max_staleness_us and (
            self.drift_bound.permits(elapsed)
        ):
            state = self.clock_state
            value = state.clamp_to_floor(
                self.drift.adjust_fast_value(state.propose(physical_us)))
            ceiling = (self._vouched_us(state.last_group_us) + elapsed
                       + self.drift_bound.error_us(elapsed)
                       + CERTIFIED_SLACK_US)
            if value > ceiling:
                # Corrupted local state (the offset or a floor) would
                # leak straight to a client here: drop an implausible
                # floor and run a full round instead.
                floors = state.drop_floors_above(ceiling)
                if floors:
                    self._note_stabilization("fast-floor", floors=list(floors))
                value = None
        if value is None:
            self.stats.fast_path_fallbacks += 1
            return None
        self.clock_state.note_fast_value(value)
        return value, elapsed

    def _serve(
        self,
        handler: CCSHandler,
        op: PendingOp,
        group_us: int,
        *,
        fast: bool = False,
        round_number: Optional[int] = None,
    ) -> None:
        """Hand one operation its group-clock value."""
        value_us = group_us
        if op.floor_us is not None and value_us <= op.floor_us:
            # The request's session floor binds identically at every
            # replica: a round committed before the floor was observed
            # (a retained round covering a late op) must not hand the
            # client a value it has already seen.
            value_us = op.floor_us + 1
        if not fast and self.fast_path:
            # The fast path may have served values ahead of this round's
            # agreed group value (commit anchors differ across replicas).
            # The *committed* group clock stays the agreed value, but the
            # reply handed to this replica's clients must not step
            # backwards past a fast read it already served — unless the
            # fast floor sits that far above the agreed value: then it is
            # corrupted state, not a read, and the round re-anchors it.
            floor = self.clock_state.fast_floor_us
            if (floor is not None and floor
                    > self._vouched_us(value_us) + STABILIZE_VALUE_GAP_US):
                self.clock_state.fast_floor_us = floor = None
                self._note_stabilization("fast-floor", floors=["fast"])
            if floor is not None and value_us <= floor:
                value_us = floor + 1
            self.clock_state.note_fast_value(value_us)
        value = ClockValue(op.call.quantize(value_us))
        self._record(handler.my_thread_id, op.call.name, value)
        if not fast and self.recorder is not None:
            self.recorder.served_ops[(handler.my_thread_id, op.op_id)] = group_us
        self.stats.ops_completed += 1
        if self.tracer.enabled:
            # The cross-node assembler joins this to op.execute by
            # (node, request index) and to round.won by (node, thread,
            # round) — see repro.obs.crossnode.
            self.tracer.emit(
                "op.served", self.node_id, thread=handler.my_thread_id,
                req=op.op_id[0], op_seq=op.op_id[1], round=round_number,
                fast=fast, group_us=value_us, t=self.sim.now,
            )
        if not op.result.triggered:
            op.result.succeed(value)

    def _pump(self, handler: CCSHandler, physical_us: int,
              from_read: bool = False) -> None:
        """Advance the handler at the caller's reading (the operation's
        or the delivery's): consume every buffered winning message, then
        open a new round if operations remain unserved."""
        while handler.parked and handler.my_input_buffer:
            self._consume_round(handler, physical_us, from_read)
        if (
            handler.parked
            and handler.in_flight is None
            and not handler.my_input_buffer
        ):
            self._open_round(handler, physical_us)

    def _consume_round(self, handler: CCSHandler, physical_us: int, from_read: bool) -> None:
        """Consume the next winning CCS message: commit the group value,
        then serve every parked operation the message's covering point
        binds to this round (Figure 2 lines 15-17, amortized)."""
        msg = handler.pop_message()
        if msg.round_number != handler.my_round_number + 1:
            if self.guard is None:
                thread = handler.my_thread_id
                buffered = [msg.round_number] + [
                    m.round_number for m in handler.my_input_buffer]
                in_flight = handler.in_flight
                raise ConsistencyError(
                    f"thread {thread!r}: buffered CCS round "
                    f"{msg.round_number} does not follow consumption point "
                    f"{handler.my_round_number} (node {self.node_id}; "
                    f"buffered rounds {buffered}; accepted watermark "
                    f"{self._accepted.get(thread)}; in-flight round "
                    f"{in_flight.round_number if in_flight else None}; "
                    f"recovering: {self._recovering})",
                    node=self.node_id,
                )
            self.guard.adopt_round_numbering(handler, msg)
        handler.my_round_number = msg.round_number
        group_us = msg.proposed_micros
        in_flight, handler.in_flight = handler.in_flight, None
        proposed = (in_flight is not None
                    and in_flight.round_number == msg.round_number)
        if proposed:
            derived_from_us = in_flight.physical_us
            started_at = in_flight.started_at
            # We proposed for this round: proposal minus winner is the
            # per-round estimate of our skew against the group.
            self.last_skew_us = skew = in_flight.proposal_us - group_us
            if self.metrics.enabled:
                self.metrics.observe(M_SKEW_ABS, abs(skew), node=self.node_id)
        else:
            # We never proposed for this round (it was driven by another
            # replica, or arrived while we were catching up): the reading
            # is the caller's — the consuming read's when the round
            # serves it (Figure 2, line 11 short-circuit).
            derived_from_us = physical_us
            started_at = self.sim.now
            handler.in_flight = in_flight
            if self.tracer.enabled:
                self.tracer.emit(
                    "round.start", self.node_id,
                    thread=handler.my_thread_id, round=msg.round_number,
                    proposal_us=None, call=None, buffered=True,
                    t=started_at,
                )
        handler.retain_consumed(
            ConsumedRound(msg.round_number, msg.covers, group_us)
        )
        served = handler.take_covered(msg.covers)
        state = self.clock_state
        prior_offset = (
            state.offset_us if state.last_group_us is not None else None)
        self._commit(group_us, derived_from_us)
        state.offset_us = self.drift.adjust_offset(state.offset_us)
        if (
            prior_offset is not None and not (proposed or served)
            and abs(state.offset_us - prior_offset) <= STABILIZE_VALUE_GAP_US
        ):
            # Figure 2 derives the offset from an operation's line-3
            # reading: the round's open, or the consuming read it serves.
            # A round we neither proposed for nor serve an op from is
            # consumed only to catch the consumption point up (we
            # fast-served what it covers); its reading is taken however
            # late the consume ran and would fold that wait into the
            # offset.  Keep the prior one — unless it is corruption-scale
            # off: that is the repair path for a scrambled offset.
            state.offset_us = prior_offset
        self._last_commit_physical_us = physical_us
        self.stats.rounds_completed += 1

        if self.metrics.enabled:
            self.metrics.observe(M_BATCH, len(served), node=self.node_id)
            for op in served:
                self.metrics.observe(
                    M_ROUND_LATENCY, (self.sim.now - op.started_at) * 1e6,
                    node=self.node_id)
        if len(served) > 1:
            self.stats.ops_coalesced += len(served) - 1
        if self.tracer.enabled:
            self.tracer.emit(
                "round.complete", self.node_id,
                group=self.replica.group,
                thread=handler.my_thread_id, round=msg.round_number,
                group_us=group_us, offset_us=state.offset_us,
                batch=len(served),
                latency_us=(self.sim.now - started_at) * 1e6,
                t=self.sim.now,
            )
        if from_read and served:
            # The winner was buffered before the read arrived: no CCS
            # message of ours was constructed (line 11 short-circuit).
            self.stats.rounds_from_buffer += 1
        for op in served:
            self._serve(handler, op, group_us, round_number=msg.round_number)

    def _commit(self, group_us: int, physical_us: int) -> None:
        """Re-derive the offset from a decided round (Figure 2, line 7)."""
        offset_us = self.clock_state.commit(group_us, physical_us)
        if self.recorder is not None:
            self.recorder.history.append((group_us, physical_us, offset_us))

    def _open_round(self, handler: CCSHandler, physical_us: int) -> None:
        """Start a round covering every currently parked operation
        (Figure 2 lines 3-4 and 9)."""
        round_number = handler.my_round_number + 1
        covers = handler.parked[-1].op_id
        proposal_us = self.clock_state.clamp_to_floor(
            self.drift.adjust_proposal(self.clock_state.propose(physical_us))
        )
        handler.in_flight = RoundInFlight(
            round_number=round_number,
            covers=covers,
            proposal_us=proposal_us,
            physical_us=physical_us,
            call_type_id=handler.parked[0].call.type_id,
            sent=False,
            started_at=self.sim.now,
        )
        if self.tracer.enabled:
            self.tracer.emit(
                "round.start", self.node_id, thread=handler.my_thread_id,
                round=round_number, proposal_us=proposal_us,
                covers=list(covers), batch=len(handler.parked),
                buffered=False, t=self.sim.now,
            )
        if self._may_send():
            self._send_ccs(handler)

    def note_min_active_request(self, min_request_index: int) -> None:
        """The replica runtime finished every request below this index:
        retained consumed rounds below ``(min_request_index, 0)`` can no
        longer be asked for and are pruned."""
        for handler in self._handlers.values():
            handler.prune_consumed(min_request_index)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _may_send(self) -> bool:
        if self._recovering:
            return False  # a recovering replica never competes (§3.2)
        # Passive and semi-active replication leave every
        # non-deterministic decision to the primary (Section 3.3).
        return self.replica.style == "active" or self.replica.is_primary

    def _send_ccs(self, handler: CCSHandler) -> None:
        pending = handler.in_flight
        pending.sent = True
        self.stats.ccs_sent += 1
        if self.tracer.enabled:
            self.tracer.emit(
                "round.sent", self.node_id, thread=handler.my_thread_id,
                round=pending.round_number, proposal_us=pending.proposal_us,
                t=self.sim.now,
            )
        self.replica.endpoint.mcast(
            make_envelope(
                MsgType.CCS,
                self.replica.group,
                self.replica.group,
                0,
                pending.round_number,
                self.node_id,
                body=CCSMessage(
                    thread_id=handler.my_thread_id,
                    round_number=pending.round_number,
                    proposed_micros=pending.proposal_us,
                    call_type_id=pending.call_type_id,
                    covers_req=pending.covers[0],
                    covers_seq=pending.covers[1],
                ),
            )
        )

    # ------------------------------------------------------------------
    # Reception (Figure 3)
    # ------------------------------------------------------------------

    def handle_ccs(self, envelope: Envelope, physical_us: int) -> None:
        msg = envelope.body
        if not isinstance(msg, CCSMessage):
            return  # some other time source's control traffic
        thread_id = msg.thread_id
        watermark = self._accepted.get(thread_id, 0)
        if msg.round_number <= watermark:
            if watermark - msg.round_number <= STABILIZE_ROUND_GAP:
                self.stats.duplicates_discarded += 1
                return
            # A watermark this far ahead of live traffic is corruption,
            # not history: reset it from the live round rather than
            # discarding every future winner.
            self._note_stabilization(
                "watermark", thread=thread_id, watermark=watermark,
                round=msg.round_number)
        if self.guard is not None and not self.guard.admit_winner(
                envelope, msg, physical_us):
            return
        self._accepted[thread_id] = msg.round_number
        self.stats.rounds_accepted += 1
        if self.recorder is not None:
            self.recorder.winners.append(
                (thread_id, msg.round_number, envelope.sender))
        self.clock_state.observe_group_value(msg.proposed_micros)
        if self.tracer.enabled:
            self.tracer.emit(
                "round.won", self.node_id, thread=thread_id,
                round=msg.round_number, winner=envelope.sender,
                group_us=msg.proposed_micros, t=self.sim.now,
            )

        handler = self._handler(thread_id)
        handler.recv_CCS_msg(msg)
        if self._recovering:
            # Integration of a new clock (Section 3.2): adopt the group
            # clock immediately, deriving our own offset from our own
            # physical clock; the message stays buffered for replay.
            self._commit(msg.proposed_micros, physical_us)
            self.stats.recovery_adoptions += 1
            if self.tracer.enabled:
                self.tracer.emit(
                    "round.adopted", self.node_id, thread=thread_id,
                    round=msg.round_number, offset_us=self.clock_state.offset_us,
                    t=self.sim.now,
                )
            return

        self._try_suppress(envelope, msg)
        self._pump(handler, physical_us)

    def handle_raw_ccs(self, envelope: Envelope, physical_us: int) -> None:
        """Early duplicate suppression (Section 4.3).

        A CCS message observed on the wire already carries a Totem
        sequence number; a message of ours still sitting in the send
        queue would be sequenced *after* it and lose the round with
        certainty — withdraw it without waiting for ordered delivery.
        """
        msg = envelope.body
        if isinstance(msg, CCSMessage):
            if self.guard is not None and self.guard.would_reject(msg, physical_us):
                return
            self._try_suppress(envelope, msg)

    def _try_suppress(self, envelope: Envelope, msg: CCSMessage) -> None:
        """Withdraw our queued-but-untransmitted CCS message for a round
        another replica's proposal has already beaten."""
        if not self.suppress_pending or envelope.sender == self.node_id:
            return
        handler = self._handlers.get(msg.thread_id)
        if (
            handler is not None
            and handler.in_flight is not None
            and handler.in_flight.sent
            and handler.in_flight.round_number == msg.round_number
        ):
            cancelled = self.replica.endpoint.cancel_pending(
                self._matches_my_ccs(msg.thread_id, msg.round_number)
            )
            self.stats.ccs_suppressed += cancelled
            if cancelled and self.tracer.enabled:
                self.tracer.emit(
                    "round.suppressed", self.node_id,
                    thread=msg.thread_id, round=msg.round_number,
                    beaten_by=envelope.sender, t=self.sim.now,
                )

    def _vouched_us(self, group_us: int) -> int:
        """The highest value local state vouches for beside an agreed
        ``group_us``, the base of the ``fast-floor`` repair.  Crash-only
        mode trusts its own state: the last group value and the causal
        floor, which only ordered input raises (another group's stamp, a
        request's session floor) and which may sit seconds ahead.  The
        guard trusts no floor: only the agreed value vouches."""
        if self.guard is not None:
            return group_us
        state = self.clock_state
        return max(value for value in (
            group_us, state.last_group_us, state.causal_floor_us)
            if value is not None)

    def _note_stabilization(self, what: str, **fields) -> None:
        """Count one self-stabilization repair of scrambled local state."""
        repairs = self.stats.stabilizations
        repairs[what] = repairs.get(what, 0) + 1
        if self.tracer.enabled:
            self.tracer.emit("state.repaired", self.node_id, what=what,
                             t=self.sim.now, **fields)

    def _matches_my_ccs(self, thread_id: str, round_number: int) -> Callable:
        def predicate(envelope: Envelope) -> bool:
            body = envelope.body
            return (
                envelope.header.msg_type is MsgType.CCS
                and envelope.sender == self.node_id
                and isinstance(body, CCSMessage)
                and body.thread_id == thread_id
                and body.round_number == round_number
            )

        return predicate

    def _handler(self, thread_id: str) -> CCSHandler:
        """The thread's handler, created on first sight of its id — by a
        read, an accepted winner or a transferred state.  Thread ids are
        deterministic, so no message ever waits outside a handler (the
        paper's common input buffer, Figure 3 line 4)."""
        if thread_id not in self._handlers:
            self._handlers[thread_id] = CCSHandler(thread_id)
        return self._handlers[thread_id]

    # ------------------------------------------------------------------
    # Views and primary failover (Section 3.3)
    # ------------------------------------------------------------------

    def on_view_change(self, view: "GroupView") -> None:
        if self.replica.style == "active" or view.primary != self.node_id:
            return
        # We just became (or confirmed ourselves as) primary: any round
        # still blocked with no CCS message received must now be driven
        # by us — unless the old primary's message already arrived.
        for handler in self._handlers.values():
            pending = handler.in_flight
            if (
                pending is not None
                and not pending.sent
                and not handler.my_input_buffer
            ):
                self._send_ccs(handler)

    # ------------------------------------------------------------------
    # State transfer (Section 3.2)
    # ------------------------------------------------------------------

    def abort_in_flight(self) -> None:
        for handler in self._handlers.values():
            aborted = handler.abort_pending(
                "replica abandoned its protocol position"
            )
            if aborted:
                self.stats.rounds_aborted += 1

    def begin_recovery(self) -> None:
        self._recovering = True

    def finish_recovery(self) -> None:
        self._recovering = False

    def get_transfer_state(self) -> TimeTransferState:
        state = TimeTransferState(
            last_group_us=self.clock_state.last_group_us,
            causal_floor_us=self.clock_state.causal_floor_us,
        )
        for thread_id, handler in self._handlers.items():
            state.rounds[thread_id] = handler.my_round_number
            if handler.last_op_id != (0, 0):
                state.ops[thread_id] = handler.last_op_id
            if handler.my_input_buffer:
                state.buffered[thread_id] = list(handler.my_input_buffer)
        state.accepted.update(self._accepted)
        return state

    def set_transfer_state(self, state: object) -> None:
        """Adopt a transferred protocol position, thread by thread.

        Transferred messages are authoritative up to their horizon; what
        this replica buffered live extends beyond it.  A replica that
        already holds handlers (rejoining the primary component after a
        partition, or a passive backup applying a checkpoint) drops its
        messages below the horizon — they may come from an abandoned
        minority fork — and its counters rise to the transferred ones."""
        if not isinstance(state, TimeTransferState):
            return
        for thread_id in sorted(
                set(state.rounds) | set(state.buffered) | set(self._handlers)):
            handler = self._handler(thread_id)
            transferred = state.buffered.get(thread_id, [])
            horizon = max([m.round_number for m in transferred] + [
                state.rounds.get(thread_id, 0),
                state.accepted.get(thread_id, 0)])
            beyond = [m for m in handler.my_input_buffer
                      if m.round_number > horizon]
            handler.my_round_number = max(
                handler.my_round_number, state.rounds.get(thread_id, 0))
            op = state.ops.get(thread_id, (0, 0))
            handler.last_op_id = max(handler.last_op_id,
                                     (int(op[0]), int(op[1])))
            handler.my_input_buffer.clear()
            handler.my_input_buffer.extend(
                m for m in transferred + beyond
                if m.round_number > handler.my_round_number)
            self._accepted[thread_id] = max(
                [self._accepted.get(thread_id, 0), horizon]
                + [m.round_number for m in beyond])
        for thread_id, accepted in state.accepted.items():
            # Also a thread with no handler: a winner the guard burnt.
            self._accepted[thread_id] = max(
                self._accepted.get(thread_id, 0), accepted)
        if state.last_group_us is not None:
            self.clock_state.observe_group_value(state.last_group_us)
        if state.causal_floor_us is not None:
            self.clock_state.observe_causal_timestamp(state.causal_floor_us)

    # ------------------------------------------------------------------
    # Multigroup causal timestamps (Section 5 extension)
    # ------------------------------------------------------------------

    def current_timestamp(self) -> int:
        """The latest group clock value, for piggybacking on messages
        multicast to other groups."""
        return self.clock_state.last_group_us or 0

    def observe_timestamp(self, timestamp_us: int) -> None:
        """A message from another group carried this group-clock
        timestamp; future readings here must exceed it (causality)."""
        self.clock_state.observe_causal_timestamp(timestamp_us)
