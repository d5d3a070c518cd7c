"""The Byzantine guard: the winner filter and the repairs it implies.

The crash-only consistent time service trusts every ordered CCS winner.
:class:`ByzantineGuard` is what the service holds (instead of ``None``)
when it may not, behind one hook, :meth:`ByzantineGuard.admit_winner`:
a WALDEN-style accuracy filter rejects ordered round winners whose
value falls outside the drift-certified window and burns their round
(a winner numbered past the next round is discarded unburnt),
``STABILIZE_QUORUM`` distinct rejected peers (f + 1) prove our own
anchor wrong and repair it, and a rejected proposal of our own repairs
the state that fed it.  Every repair that needs no peer evidence is the
service's own, in both modes: the duplicate watermark, the round
counter (Herman-style adoption of the ordered numbering), a scrambled
offset, the fast-path ceiling and a corrupt fast floor
(:meth:`~repro.core.group_clock.GroupClockState.drop_floors_above`).
Early duplicate suppression needs no filter: a winner the guard rejects
has its round burnt, so a proposal sequenced after it loses either way.

The guard keeps only its own evidence; the state it judges and repairs —
``clock_state``, ``_accepted``, the handler counters, the commit anchor —
stays on the service, where fault injection scrambles it.
"""

from __future__ import annotations

from typing import Dict, Optional, TYPE_CHECKING

from ..replication.envelope import Envelope
from .group_clock import (CERTIFIED_SLACK_US, STABILIZE_ROUND_GAP,
                          STABILIZE_VALUE_GAP_US)
from .messages import CCSMessage

if TYPE_CHECKING:  # pragma: no cover
    from .time_service import ConsistentTimeService

#: Low-side slack: legitimate concurrent proposals may be ordered up to
#: this far behind the latest committed group value.
BYZ_LAG_US = 250_000
#: Distinct senders whose ordered values must disagree with our
#: certified window (by a corruption-scale gap, on the same side) before
#: we conclude *our* anchor is the corrupted outlier and stabilize.  Two
#: is sound for f = 1 (the quorum is f + 1).
STABILIZE_QUORUM = 2


class ByzantineGuard:
    """Winner sanity filter and self-stabilization for one service."""

    def __init__(self, service: "ConsistentTimeService"):
        self.service = service
        self.tracer = service.tracer
        #: side ("too-high"/"too-low") -> {sender: latest rejected
        #: value} since the last accepted winner.
        self._reject_evidence: Dict[str, Dict[str, int]] = {
            "too-high": {}, "too-low": {}}

    # ------------------------------------------------------------------
    # The hook the service calls
    # ------------------------------------------------------------------

    def admit_winner(self, envelope: Envelope, msg: CCSMessage,
                     physical_us: int) -> bool:
        """Judge one ordered round winner at its delivery reading;
        False means it was rejected: discarded if out of order, else
        its round burned."""
        svc = self.service
        if not svc._recovering:
            ahead = msg.round_number - svc._accepted.get(msg.thread_id, 0) - 1
            if 0 < ahead <= STABILIZE_ROUND_GAP:
                # No replica proposes round k + 2 before k + 1 is won: a
                # forged numbering.  Every correct replica's watermark
                # discards it alike, and the skipped round stays open.
                self._reject_ccs(envelope, msg, "out-of-order")
                return False
            reason = self._winner_rejection(msg, physical_us)
            if reason is not None and self._note_reject_evidence(
                    reason, envelope.sender, msg, physical_us):
                # A quorum of distinct peers was rejected on the same
                # side of our window: at least one of them is correct
                # (f < n/3), so *our* anchor was the outlier.  The
                # quorum handler repaired it — re-evaluate this winner
                # against the repaired state.
                reason = self._winner_rejection(msg, physical_us)
            if reason is not None:
                self._reject_ccs(envelope, msg, reason)
                if envelope.sender == svc.node_id:
                    # Our own ordered proposal failed our own filter:
                    # some local floor or the offset fed it a poisoned
                    # value.  Repair what is provably implausible so
                    # the re-proposal is clean — we must recover even
                    # when no other replica proposes.
                    self._repair_after_self_reject(msg)
                # Agreement safety: the window is anchored on local
                # state, so accept/reject is not guaranteed unanimous
                # among correct replicas — another replica may commit
                # this winner.  Committing a *different* value for the
                # same round number would diverge, so the round is
                # dead to us: burn its number and re-propose — unless it
                # is further ahead still, a corrupted sender's numbering.
                if ahead <= 0:
                    self._skip_round(msg, physical_us)
                return False
        self._reject_evidence["too-high"].clear()
        self._reject_evidence["too-low"].clear()
        return True

    # ------------------------------------------------------------------
    # Sanity filter
    # ------------------------------------------------------------------

    def _winner_rejection(self, msg: CCSMessage, physical_us: int) -> Optional[str]:
        """WALDEN-style accuracy filter: the drift-certified window.

        After the first commit, an honest winner's value must sit within
        ``[last_group - BYZ_LAG_US, last_group + elapsed + drift_error +
        CERTIFIED_SLACK_US]``: group time advances at most at real time plus
        the certified drift, and a legitimate concurrent proposal can be
        ordered only boundedly late.  Returns the rejection reason, or
        None to accept.  Before the first commit there is no certified
        anchor (cold-start clock spread is legitimate) and everything is
        accepted.
        """
        svc = self.service
        last = svc.clock_state.last_group_us
        if last is None or svc._last_commit_physical_us is None:
            return None
        elapsed = max(0, physical_us - svc._last_commit_physical_us)
        hi = (last + elapsed + svc.drift_bound.error_us(elapsed)
              + CERTIFIED_SLACK_US)
        if msg.proposed_micros > hi:
            return "too-high"
        if msg.proposed_micros < last - BYZ_LAG_US:
            return "too-low"
        return None

    def _note_reject_evidence(self, reason: str, sender: str,
                              msg: CCSMessage, physical_us: int) -> bool:
        """Accumulate distinct-peer evidence that our own window — not
        the senders' values — is wrong, and repair it at quorum.

        A single liar can fabricate any value, but ``STABILIZE_QUORUM``
        *distinct* senders rejected on the same side since our last
        accepted winner include at least one correct replica (f < n/3
        with quorum = f + 1), so our own state is the outlier.  Two
        repairs, by scale of the quorum's most conservative value:

        * corruption-scale (more than ``STABILIZE_VALUE_GAP_US`` off
          our anchor): the anchor itself came from corrupted state —
          drop every floor and re-anchor from the live stream;
        * lag-scale too-high (honest winners keep landing just above
          the window): the physical anchor of our last commit was
          stamped late — processing lag, not clock drift — so the
          window trails real group time.  Rewind the anchor until the
          quorum's *minimum* rejected value fits.  The minimum is safe:
          with a correct sender in the quorum it never exceeds an
          honest proposal (liars overshoot; undershooters land in
          ``too-low``).

        Returns True when a repair happened; the caller re-evaluates
        the current winner against the repaired state, so a liar's
        value stays rejected while the honest quorum minimum passes.
        """
        svc = self.service
        if sender == svc.node_id:
            # Our own rejected proposal indicts our proposal state, not
            # the window — handled by _repair_after_self_reject.  It
            # must not count toward a peer quorum.
            return False
        # Each sender's latest value: an older one trails live group
        # time and would make every fresh value an outlier below.
        evidence = self._reject_evidence[reason]
        evidence[sender] = msg.proposed_micros
        # Coherence: honest winners over the evidence horizon sit
        # within the ordering-lag bound of each other, while two
        # *faulty* senders (a liar plus a not-yet-repaired corrupted
        # replica) are arbitrarily far apart — without this check they
        # could form a quorum whose minimum is still a lie.  Drop high
        # outliers until the span is coherent; lone faulty values then
        # never reach quorum against an honest entry.
        while (
            len(evidence) >= STABILIZE_QUORUM
            and max(evidence.values()) - min(evidence.values())
            > BYZ_LAG_US
        ):
            worst = max(evidence, key=evidence.get)
            del evidence[worst]
        if len(evidence) < STABILIZE_QUORUM:
            return False
        target = min(evidence.values())
        evidence.clear()
        last = svc.clock_state.last_group_us
        if last is None:
            return False
        if abs(target - last) > STABILIZE_VALUE_GAP_US:
            svc.clock_state.stabilize()
            svc._note_stabilization(
                "floors", thread=msg.thread_id, round=msg.round_number)
            return True
        if reason == "too-high" and svc._last_commit_physical_us is not None:
            elapsed = max(0, physical_us - svc._last_commit_physical_us)
            estimate = last + elapsed
            if target > estimate:
                delta = target - estimate
                svc._last_commit_physical_us -= delta
                svc._note_stabilization("anchor", adjusted_us=delta)
                return True
        return False

    def _skip_round(self, msg: CCSMessage, physical_us: int) -> None:
        """Burn a round whose ordered winner we rejected.

        Other correct replicas may have accepted the winner, and the
        first ordered proposal *is* the round under Totem — so once we
        reject it, no later proposal may win the same round number for
        us without risking divergence.  Advance the duplicate watermark
        past the round, move the consumption point up (consuming first
        the winners buffered below it, so the burn lands in order), and
        withdraw any in-flight proposal so ``_pump`` re-proposes the
        parked operations for the next round.  A liar that keeps winning
        the order therefore costs correct replicas rounds, never
        agreement; liveness survives because every honest replica's
        re-proposal races for the next round on the rotating token.
        """
        svc, thread_id = self.service, msg.thread_id
        svc._accepted[thread_id] = msg.round_number
        if self.tracer.enabled:
            self.tracer.emit(
                "round.skipped", svc.node_id, thread=thread_id,
                round=msg.round_number, t=svc.sim.now)
        handler = svc._handler(thread_id)
        while handler.my_input_buffer:
            svc._consume_round(handler, physical_us, False)
        handler.my_round_number = max(
            handler.my_round_number, msg.round_number)
        pending = handler.in_flight
        if pending is not None and pending.round_number <= msg.round_number:
            handler.in_flight = None
        svc._pump(handler, physical_us)

    def _reject_ccs(self, envelope: Envelope, msg: CCSMessage,
                    reason: str) -> None:
        svc = self.service
        rejected = svc.stats.winners_rejected
        rejected[reason] = rejected.get(reason, 0) + 1
        if self.tracer.enabled:
            self.tracer.emit(
                "round.rejected", svc.node_id, thread=msg.thread_id,
                round=msg.round_number, sender=envelope.sender,
                proposed_us=msg.proposed_micros, reason=reason,
                t=svc.sim.now,
            )

    def _repair_after_self_reject(self, msg: CCSMessage) -> None:
        """Our own ordered proposal failed our own window: whichever
        floor — or the offset itself — is corruption-scale off the
        certified anchor fed it."""
        svc = self.service
        state = svc.clock_state
        anchor = state.last_group_us
        if anchor is None:
            return
        repaired = []
        if (
            abs(msg.proposed_micros - anchor) > STABILIZE_VALUE_GAP_US
            and svc._last_commit_physical_us is not None
        ):
            # The proposal is corruption-scale off: re-derive the offset
            # from the last committed round (group minus the physical
            # reading taken at that commit — both honest by agreement)
            # instead of waiting for another replica's winner.  A sole
            # proposer must be able to repair itself.
            state.offset_us = anchor - svc._last_commit_physical_us
            repaired.append("offset")
        repaired += state.drop_floors_above(anchor + STABILIZE_VALUE_GAP_US)
        if repaired:
            svc._note_stabilization("floors", floors=repaired)
