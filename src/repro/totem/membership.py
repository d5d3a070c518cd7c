"""Totem membership: failure detection, ring formation, and recovery.

Implements a (simplified but functional) version of the Totem membership
protocol [Amir et al. 1995]:

* **Gather** — on token loss, a foreign message, or a Join from an
  unknown processor, every processor multicasts Join messages carrying
  its ``proc_set`` (processors it believes alive) and ``fail_set``
  (processors it has given up on).  Sets are merged as Joins arrive;
  consensus is reached when every candidate member advertises identical
  sets.
* **Commit** — the representative (lowest-id candidate) circulates a
  :class:`~repro.totem.messages.CommitToken` around the proposed ring;
  each member contributes its old-ring state (first rotation).
* **Recover** — further commit-token rotations drive retransmission of
  old-ring messages until every member holds the same prefix (up to the
  *recovery ceiling* = the highest sequence number any member of the old
  ring holds).  Messages held by no survivor are tombstoned.  Each member
  then delivers the remaining old-ring messages in order, delivers the
  :class:`~repro.totem.messages.ConfigurationChange`, and installs the
  new ring; the representative finally injects a fresh regular token.

This provides extended virtual synchrony to the layers above: processors
that move together from one ring to the next deliver the same messages
in the same order before the configuration change event, which is what
the consistent time service's correctness argument relies on ("if the
message ... is delivered to any non-faulty replica, it will be delivered
to all non-faulty replicas", paper Section 3).

The primary-component partition model (paper Section 2) is implemented
here as well: a configuration is flagged primary iff it contains a
strict majority of the configured processor universe.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from .. import obs
from .messages import (
    CommitMemberInfo,
    CommitToken,
    ConfigurationChange,
    JoinMessage,
    LostMessage,
    RegularMessage,
    RingId,
)
from .ring import ProcessorState


# -- pushed instrument (zero-cost while the registry is off); gathers and
# installs are read from ProcessorStats ---------------------------------
M_MEMBERSHIP_DURATION = obs.histogram(
    "totem_membership_duration_s",
    "gather start to ring installation", unit="s",
    buckets=(0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0))


class MembershipEngine:
    """The membership state machine of one Totem processor."""

    IDLE = "idle"
    GATHER = "gather"
    RECOVER = "recover"

    def __init__(self, processor, static_membership: Tuple[str, ...]):
        self.p = processor
        self.tracer = processor.tracer
        self.metrics = processor.metrics
        #: The configured processor universe; majority of this set makes a
        #: component primary under the primary-component partition model.
        self.static_membership = static_membership
        self.phase = self.IDLE
        #: Highest ring sequence number ever seen; new rings must exceed it.
        self.highest_ring_seq = 0

        # -- gather state ------------------------------------------------
        self.proc_set: Set[str] = set()
        self.fail_set: Set[str] = set()
        self.joins: Dict[str, JoinMessage] = {}
        self.heard: Set[str] = set()
        self.tick = 0
        #: When the current reconfiguration began (for install durations).
        self._gather_started_at: Optional[float] = None

        # -- commit/recover state -------------------------------------------
        self.commit: Optional[CommitToken] = None
        self.old_members: Tuple[str, ...] = ()
        #: (old_ring_id, seq) -> commit-token rotation when we first asked.
        self._rtr_requested: Dict[Tuple[RingId, int], int] = {}
        #: Old-ring messages kept after *we* finished recovery, so we can
        #: keep serving retransmissions to members that have not: a
        #: processor recovers as soon as it delivered up to the ceiling,
        #: but ``install_ring`` wipes its receive buffer — without this
        #: snapshot, a slower member's outstanding request could go
        #: unserved and tombstone a message others already delivered.
        self._retired_ring_id: Optional[RingId] = None
        self._retired_received: Dict[int, RegularMessage] = {}
        self._commit_last_token_seq = 0
        #: What the commit-retransmit timer re-sends while it is armed.
        self._last_sent_commit: Optional[CommitToken] = None
        self._commit_retransmits = 0

        # -- timers: one reschedulable kernel deadline each ---------------
        sim = processor.sim
        self._join_tick = sim.deadline(self._on_tick)
        self._commit_loss = sim.deadline(self._on_commit_loss)
        self._commit_retransmit = sim.deadline(self._on_commit_retransmit)

        #: Members of the last primary configuration this processor was
        #: part of.  Primariness is judged against it (dynamic-linear
        #: style), so the system keeps making progress through a sequence
        #: of crashes: 4 -> 3 (3/4) -> 2 (2/3) are each primary, while a
        #: simultaneous 4 -> 2 split is not.
        self.last_primary_members: Tuple[str, ...] = static_membership

    # ------------------------------------------------------------------
    # Gather phase
    # ------------------------------------------------------------------

    def start_gather(self, reason: str = "") -> None:
        """Leave normal operation and begin forming a new ring."""
        if not self.p.alive or self.phase == self.GATHER:
            return
        self.p.state = ProcessorState.GATHER
        self.phase = self.GATHER
        if self.p.ring is not None:
            self.highest_ring_seq = max(self.highest_ring_seq, self.p.ring.ring_id.seq)
            self.old_members = self.p.ring.members
        self.proc_set = {self.p.me} | set(self.old_members)
        self.fail_set = set()
        self.joins = {}
        self.heard = {self.p.me}
        self.tick = 0
        self.commit = None
        self._rtr_requested = {}
        self._commit_last_token_seq = 0
        self._gather_started_at = self.p.sim.now
        self.p.stats.gathers += 1
        if self.tracer.enabled:
            self.tracer.emit("membership.gather", self.p.me, reason=reason,
                             t=self.p.sim.now)
        self._broadcast_join()
        self._commit_loss.clear()
        self._commit_retransmit.clear()
        self._join_tick.reset(self.p.config.join_interval_s)

    def stop(self) -> None:
        """Disarm every membership timer (see ``TotemProcessor.stop``)."""
        for timer in (self._join_tick, self._commit_loss,
                      self._commit_retransmit):
            timer.clear()

    def _broadcast_join(self) -> None:
        join = JoinMessage(
            sender=self.p.me,
            proc_set=frozenset(self.proc_set),
            fail_set=frozenset(self.fail_set),
            ring_seq=self.highest_ring_seq,
        )
        self.p.multicast_raw(join)

    def _on_tick(self) -> None:
        if self.phase != self.GATHER or not self.p.alive:
            return
        self.tick += 1
        if self.tick >= self.p.config.fail_after_join_ticks:
            silent = self.proc_set - self.heard - self.fail_set - {self.p.me}
            if silent:
                self.fail_set |= silent
        self._broadcast_join()
        self._check_consensus()
        if self.phase == self.GATHER:
            self._join_tick.reset(self.p.config.join_interval_s)

    def handle_join(self, join: JoinMessage) -> None:
        if not self.p.alive:
            return
        self.highest_ring_seq = max(self.highest_ring_seq, join.ring_seq)
        if join.sender == self.p.me:
            return  # input check: no transport loops our own join back

        if self.phase == self.IDLE:
            ring = self.p.ring
            stale = (
                ring is not None
                and join.sender in ring.members
                and join.ring_seq < ring.ring_id.seq
            )
            if stale:
                return
            self.start_gather(reason=f"join from {join.sender}")
        elif self.phase == self.RECOVER:
            assert self.commit is not None
            disputing = (
                join.sender not in self.commit.members
                or join.ring_seq >= self.commit.ring_id.seq
            )
            if not disputing:
                return
            self.phase = self.IDLE  # allow re-entry
            self.start_gather(reason=f"join during recovery from {join.sender}")

        # Now in gather: merge the sender's view into ours.
        if self.p.me in join.fail_set:
            # Someone has given up on us.  Step aside: form our own
            # (typically singleton) ring without the accusers; a later
            # remerge reconciles the components.
            self.proc_set = {self.p.me}
            self.fail_set = set(join.fail_set - {self.p.me}) | {join.sender}
            self.joins = {}
            self.heard = {self.p.me}
            self.tick = 0
            self._broadcast_join()
            return
        self.heard.add(join.sender)
        self.joins[join.sender] = join
        merged_proc = self.proc_set | set(join.proc_set) | {join.sender}
        merged_fail = self.fail_set | (set(join.fail_set) - {self.p.me})
        if merged_proc != self.proc_set or merged_fail != self.fail_set:
            self.proc_set = merged_proc
            self.fail_set = merged_fail
            self._broadcast_join()
        self._check_consensus()

    def _check_consensus(self) -> None:
        candidate = self.proc_set - self.fail_set
        if self.p.me not in candidate:
            return
        if len(candidate) == 1:
            # Don't conclude we are alone until we have listened a while.
            if self.tick < self.p.config.fail_after_join_ticks:
                return
        else:
            for member in candidate:
                if member == self.p.me:
                    continue
                join = self.joins.get(member)
                if (
                    join is None
                    or set(join.proc_set) != self.proc_set
                    or set(join.fail_set) != self.fail_set
                ):
                    return
        representative = min(candidate)
        if representative != self.p.me:
            return  # wait for the representative's commit token
        token = CommitToken(
            ring_id=RingId(self.highest_ring_seq + 1, representative),
            members=tuple(sorted(candidate)),
            token_seq=1,
            rotation=1,
        )
        self._enter_recover(token)
        self._process_commit_visit(token)

    # ------------------------------------------------------------------
    # Commit / recover phases
    # ------------------------------------------------------------------

    def handle_commit_token(self, token: CommitToken) -> None:
        if not self.p.alive or self.p.me not in token.members:
            return
        if self.phase == self.GATHER:
            if self.p.ring is not None and token.ring_id.seq <= self.p.ring.ring_id.seq:
                return  # stale commit token from a ring we already left
            self._enter_recover(token.copy())
            self._process_commit_visit(self.commit)
        elif self.commit is not None and token.ring_id == self.commit.ring_id:
            if token.token_seq <= self._commit_last_token_seq:
                return  # duplicate (commit-token retransmission)
            self.commit = token.copy()
            self._process_commit_visit(self.commit)
        # Anything else is stale and ignored.

    def _enter_recover(self, token: CommitToken) -> None:
        self.phase = self.RECOVER
        self.p.state = ProcessorState.RECOVER
        self.commit = token
        self.highest_ring_seq = max(self.highest_ring_seq, token.ring_id.seq)
        self._rtr_requested = {}
        self._commit_last_token_seq = token.token_seq
        self._commit_retransmits = 0
        self._join_tick.clear()

    def handle_recovery_message(self, msg: RegularMessage) -> None:
        """Old-ring retransmission received during recovery: file it into
        the regular receive machinery (the old ring's state is still the
        processor's live state until the new ring is installed)."""
        if self.p.ring is None or msg.ring_id != self.p.ring.ring_id:
            return
        self.p._store_message(msg)
        self.p._try_deliver()

    def _my_old_ring_id(self) -> Optional[RingId]:
        return self.p.ring.ring_id if self.p.ring is not None else None

    def _process_commit_visit(self, token: CommitToken) -> None:
        """Handle one visit of the commit token at this processor."""
        p = self.p
        self._commit_last_token_seq = token.token_seq
        self._commit_retransmit.clear()  # evidence of progress
        p._token_evidence()
        self._commit_loss.reset(p.config.token_loss_timeout_s)

        old_ring = self._my_old_ring_id()

        # 1. Contribute / refresh our member info.
        token.info[p.me] = CommitMemberInfo(
            old_ring_id=old_ring,
            high_seq=p.high_seq,
            recovery_aru=p.my_aru,
            recovered=self.phase == self.IDLE,
        )

        # 2. Serve retransmission requests for our old ring (tombstones
        #    are not real copies, so they cannot be served).
        served = []
        for entry in token.rtr:
            entry_ring, seq = entry
            msg = p.received.get(seq) if entry_ring == old_ring else None
            if msg is None and entry_ring == self._retired_ring_id:
                msg = self._retired_received.get(seq)
            if msg is not None and not isinstance(msg.payload, LostMessage):
                p.multicast_raw(
                    RegularMessage(
                        entry_ring, seq, p.me, msg.payload, retransmission=True
                    )
                )
                p.stats.retransmissions += 1
                served.append(entry)
        for entry in served:
            token.rtr.remove(entry)

        # 3. If everyone has contributed, we know the recovery ceiling.
        info_complete = all(m in token.info for m in token.members)
        ceiling = None
        if info_complete and old_ring is not None:
            group = [
                i.high_seq
                for i in token.info.values()
                if i.old_ring_id == old_ring
            ]
            ceiling = max(group) if group else 0

        # 4. Request anything we are missing below the ceiling; tombstone
        #    requests that no member has served for two full rotations.
        if ceiling is not None:
            for seq in range(p.my_aru + 1, ceiling + 1):
                if seq in p.received:
                    continue
                entry = (old_ring, seq)
                asked_at = self._rtr_requested.get(entry)
                if asked_at is not None and entry in token.rtr:
                    # Our request survived in the token unserved.  If it
                    # has done so for two full rotations, no survivor
                    # holds this message (its sender crashed before anyone
                    # received it): tombstone the slot so delivery can
                    # proceed consistently everywhere.
                    if token.rotation >= asked_at + 2:
                        token.rtr.remove(entry)
                        p._store_message(
                            RegularMessage(old_ring, seq, "<lost>", LostMessage(), True)
                        )
                else:
                    # First request, or a previous request was served but
                    # the retransmitted frame did not reach us: (re)issue
                    # with a fresh rotation stamp.
                    self._rtr_requested[entry] = token.rotation
                    if entry not in token.rtr:
                        token.rtr.append(entry)
            p._try_deliver()

        # 5. Finish recovery once we have delivered everything up to the
        #    ceiling (trivially true for fresh processors with no old ring).
        done = self.phase == self.RECOVER and (
            old_ring is None or (ceiling is not None and p.delivered_seq >= ceiling)
        )
        if done and info_complete:
            self._finish_recovery(token)
            token.info[p.me].recovered = True

        # 6. Representative bookkeeping: rotation counting and completion.
        if p.me == token.ring_id.representative and token.token_seq > 1:
            token.rotation += 1
            all_recovered = info_complete and all(
                token.info[m].recovered for m in token.members
            )
            if all_recovered:
                p.inject_regular_token()
                return

        # 7. Forward (single-member rings loop the token to themselves).
        if len(token.members) == 1 and token.info[p.me].recovered:
            # Singleton and fully recovered: no forwarding needed; inject.
            p.inject_regular_token()
            return
        forwarded = token.copy()
        forwarded.token_seq = token.token_seq + 1
        self.p.unicast_raw(token.next_member(p.me), forwarded)
        self._last_sent_commit = forwarded
        self._commit_retransmit.reset(p.config.token_retransmit_timeout_s)

    def _finish_recovery(self, token: CommitToken) -> None:
        """Deliver the configuration change and install the new ring."""
        p = self.p
        old_members = set(self.old_members or (p.ring.members if p.ring else ()))
        new_members = set(token.members)
        change = ConfigurationChange(
            ring_id=token.ring_id,
            members=token.members,
            joined=tuple(sorted(new_members - old_members)),
            departed=tuple(sorted(old_members - new_members)),
            is_primary=self._is_primary(new_members),
        )
        # Snapshot the old ring's messages before install_ring wipes
        # them: members still recovering may yet request retransmission.
        self._retired_ring_id = p.ring.ring_id if p.ring is not None else None
        self._retired_received = dict(p.received)
        p.install_ring(token.ring_id, token.members)
        self.old_members = token.members
        self.phase = self.IDLE
        duration_s = (
            p.sim.now - self._gather_started_at
            if self._gather_started_at is not None else None
        )
        if self.metrics.enabled and duration_s is not None:
            self.metrics.observe(M_MEMBERSHIP_DURATION, duration_s, node=p.me)
        if self.tracer.enabled:
            self.tracer.emit(
                "membership.install", p.me, ring=str(token.ring_id),
                members=",".join(token.members),
                primary=change.is_primary, duration_s=duration_s,
                t=p.sim.now,
            )
        self._gather_started_at = None
        p.deliver_config_change(change)

    def _is_primary(self, members: Set[str]) -> bool:
        base = set(self.last_primary_members) | (
            members - set(self.static_membership)
        )
        is_primary = 2 * len(members & base) > len(base)
        if is_primary:
            self.last_primary_members = tuple(sorted(members))
        return is_primary

    # ------------------------------------------------------------------
    # Commit-token timers
    # ------------------------------------------------------------------

    def _on_commit_loss(self) -> None:
        if not self.p.alive or self.phase != self.RECOVER:
            return
        self.phase = self.IDLE  # allow re-entry into gather
        self.start_gather(reason="commit token loss")

    def _on_commit_retransmit(self) -> None:
        if (
            not self.p.alive
            or self._commit_retransmits >= self.p.config.token_retransmit_limit
        ):
            return
        self._commit_retransmits += 1
        self.p.stats.token_retransmissions += 1
        self.p.unicast_raw(
            self._last_sent_commit.next_member(self.p.me), self._last_sent_commit
        )
        self._commit_retransmit.reset(self.p.config.token_retransmit_timeout_s)
