"""The invariant oracle: online checking of the paper's guarantees.

During a chaos run the oracle watches two streams — client-visible
replies (fed by the workload) and the ``round.complete`` telemetry
(subscribed from :mod:`repro.trace`) — and checks, *while faults are
being injected*:

* **Per-client monotonicity** — every client's observed group-clock
  values are strictly increasing, across retries, replica crashes and
  failovers (the paper's Property 1, extended to the session floor).
* **Cross-replica agreement per round** — all replicas that complete a
  CCS round ``(thread, round)`` commit the identical group value
  (Property 2: the round's winner is totally ordered, so every replica
  derives the same group clock).
* **Bounded staleness** — successive values a client sees advance at
  wall-clock rate, within a slack of the configured staleness budget,
  the two calls' own latencies, and a drift allowance; the fast path
  must never serve a value staler than ``max_staleness_us``.
* **Offset re-derivation** — after the run, every live replica's commit
  history satisfies the paper's defining identity
  ``offset = group − physical`` exactly, and every replica that was
  recovered mid-run completed at least one round afterwards (its clock
  offset was re-derived from the special integration round rather than
  inherited stale).

In Byzantine runs the guarantees are judged among the *correct*
replicas only: :meth:`InvariantOracle.mark_faulty` excludes a liar's
commits from the agreement check entirely (f < n/3 faulty tolerated),
and :meth:`InvariantOracle.note_corruption` opens a bounded repair
window for a correct replica whose state was scrambled — agreement is
re-enforced once the window closes, and a replica that never completes
a round beyond it is flagged as failing to self-stabilize.  In either
mode, a run with no ``corrupt-state`` on record fails ``stabilization``
if a replica repaired its round bookkeeping: the repair masked a bug.

Violations carry the offending transcript; the oracle never raises
mid-run, so one broken invariant cannot mask later ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from .. import trace
from ..core import ConsistentTimeService


@dataclass
class Violation:
    """One broken invariant, with enough transcript to debug it."""

    check: str          # monotonicity|agreement|staleness|offset|recovery
    subject: str        # client id or node id
    detail: str
    transcript: List[Any] = field(default_factory=list)
    #: Trace ids of the operations around the violation (the subject's
    #: recent calls first, then other recent traffic) — join keys into
    #: the cross-node timelines of :mod:`repro.obs.crossnode`.
    trace_ids: List[str] = field(default_factory=list)
    #: Flight-recorder artifact dumped when the violation was flagged.
    flight_dump: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "subject": self.subject,
            "detail": self.detail,
            "transcript": [repr(entry) for entry in self.transcript[-16:]],
            "trace_ids": list(self.trace_ids),
            "flight_dump": self.flight_dump,
        }


class InvariantOracle:
    """Tails replies and telemetry during a chaos run; judges at the end.

    Wire-up::

        oracle = InvariantOracle(staleness_budget_us=2_000)
        oracle.attach(bed.obs.tracer)         # hears that bed's rounds
        ...
        oracle.observe_reply("c0", value_us, wall_s=t, rtt_s=dt)
        oracle.note_recovery("n2")
        ...
        oracle.finish(bed, group="timesvc")   # post-run history checks
        assert oracle.ok, oracle.violations
    """

    def __init__(self, *, staleness_budget_us: int = 2_000,
                 drift_ppm: float = 200.0,
                 max_transient_lag_us: int = 1_000_000,
                 flight_recorder=None,
                 dump_dir: Optional[str] = None):
        self.staleness_budget_us = staleness_budget_us
        self.drift_ppm = drift_ppm
        #: Staleness debt (lag behind the anchor mapping) the service
        #: may carry *transiently* — reconfiguration stalls rounds, and
        #: a consistency-first service answers queued operations with
        #: agreed-but-stale time until the backlog drains.  Debt beyond
        #: this flags immediately; smaller debt must still be repaid by
        #: the end of the run (checked in :meth:`finish`).
        self.max_transient_lag_us = max_transient_lag_us
        #: When both are set, every violation dumps the recorder's window
        #: to ``dump_dir`` and carries the artifact path.
        self.flight_recorder = flight_recorder
        self.dump_dir = dump_dir
        self.violations: List[Violation] = []
        #: client -> trace ids of its recent calls (newest last).
        self._traces: Dict[str, List[str]] = {}
        #: Trace ids of the most recent calls across all clients.
        self._recent_traces: List[str] = []
        #: client -> (last value_us, last wall_s, last rtt_s)
        self._last: Dict[str, Tuple[int, float, float]] = {}
        #: client -> rolling reply transcript (value, wall, rtt)
        self._replies: Dict[str, List[Tuple[int, float, float]]] = {}
        self.replies_checked = 0
        #: (thread, round) -> (group_us, first node to commit it)
        self._rounds: Dict[Tuple[str, int], Tuple[int, str]] = {}
        self.rounds_checked = 0
        #: node -> rounds completed (split by recovery marks)
        self._rounds_by_node: Dict[str, int] = {}
        self._recovered: Dict[str, int] = {}  # node -> rounds at recovery
        #: Byzantine replicas: their commits are excluded from the
        #: agreement check entirely — with f < n/3 faulty the guarantees
        #: hold among the correct replicas only.
        self._faulty: set = set()
        #: node -> (rounds at corruption, allowed repair rounds).  While
        #: a corrupted-but-correct replica is inside its repair window
        #: its commits are excluded; afterwards agreement is re-enforced.
        self._corrupted: Dict[str, Tuple[int, int]] = {}
        #: client -> shard that served its last reply (sharded runs).
        self._shard_of: Dict[str, Any] = {}
        #: shard (None = whole group) -> (best observed value-to-wall
        #: offset in us, wall_s when it was set).  Service time may
        #: *catch back up* to this mapping after lagging through an
        #: outage, but may never run ahead of it.
        self._offset_anchor: Dict[Any, Tuple[float, float]] = {}
        #: fast advances exempted as catch-up to the anchor (counted,
        #: not judged).
        self.catchups_allowed = 0
        #: fast advances beyond the anchor tolerated because a
        #: reconfiguration was on record (bounded by the transient lag).
        self.overshoots_tolerated = 0
        #: shard -> (subject, worst debt us, wall_s, transcript) for a
        #: transient lag that has not yet been repaid.
        self._stall_debt: Dict[Any, Tuple[str, float, float, list]] = {}
        self.stalls_tolerated = 0
        #: Reconfigurations (join/drain/restart) the harness told us
        #: about.  Each membership change stalls rounds, and the lost
        #: time is never recouped — group time continues from the
        #: agreed value, so the value-to-wall mapping legitimately
        #: shifts down by up to the stall length.  With reconfigs on
        #: record, open debt below the transient bound is accepted at
        #: :meth:`finish`; without any, it flags.
        self.reconfigs_noted = 0
        self.migrations_checked = 0
        self.shard_summaries_checked = 0
        self.shard_resyncs = 0
        self._unsubscribe = None

    # -- lifecycle -------------------------------------------------------

    def attach(self, tracer: trace.Tracer):
        """Subscribe to the judged bed's tracer (enables it if it was
        off)."""
        if self._unsubscribe is None:
            self._unsubscribe = tracer.subscribe(self._on_trace)
        return self

    def detach(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None

    # -- online checks ---------------------------------------------------

    def observe_reply(self, client_id: str, value_us: int, *,
                      wall_s: float, rtt_s: float = 0.0,
                      trace_id: Optional[str] = None,
                      shard: Optional[Any] = None,
                      rate_slack_us: float = 0.0) -> None:
        """Feed one successful client call (reply received at ``wall_s``
        on the monotonic clock, after ``rtt_s`` seconds in flight).
        ``trace_id`` links the reply to its cross-node timeline.

        ``shard`` identifies which shard served the reply (sharded
        runs).  A shard change is a **migration**: strict monotonicity
        is still enforced — that is exactly the cross-shard guarantee
        the session floor provides — but the staleness/rate check is
        reset, because the destination group's clock legitimately sits
        up to the inter-shard skew away from the source's (and the
        floor ramp may stall the first reply).

        ``rate_slack_us`` widens the staleness/rate window — sharded
        runs pass the overlay's hop bound here, because gradient
        steering legitimately advances a trailing shard's clock faster
        than wall time while it converges on a neighbor."""
        if trace_id is not None:
            traces = self._traces.setdefault(client_id, [])
            traces.append(trace_id)
            del traces[:-8]
            self._recent_traces.append(trace_id)
            del self._recent_traces[:-16]
        log = self._replies.setdefault(client_id, [])
        log.append((value_us, wall_s, rtt_s))
        if len(log) > 64:
            del log[:-64]
        self.replies_checked += 1
        prev = self._last.get(client_id)
        self._last[client_id] = (value_us, wall_s, rtt_s)
        prev_shard = self._shard_of.get(client_id)
        if shard is not None:
            self._shard_of[client_id] = shard
        migrated = (shard is not None and prev_shard is not None
                    and shard != prev_shard)
        if prev is None:
            self._raise_anchor(shard, value_us, wall_s, rtt_s)
            return
        prev_value, prev_wall, prev_rtt = prev
        if migrated:
            self.migrations_checked += 1
            if value_us <= prev_value:
                self._flag("migration", client_id,
                           f"migrating {prev_shard} -> {shard} went "
                           f"{prev_value} -> {value_us} (the carried "
                           f"session floor must keep values strictly "
                           f"increasing across shards)",
                           list(log))
            self._raise_anchor(shard, value_us, wall_s, rtt_s)
            return  # rate baseline resets across shards
        if value_us <= prev_value:
            self._flag("monotonicity", client_id,
                       f"value went {prev_value} -> {value_us} "
                       f"(must be strictly increasing)",
                       list(log))
            return
        # Staleness/rate bound.  Each value was generated somewhere inside
        # its call window, so the generation gap differs from the
        # reply-to-reply wall gap by at most the two calls' latencies;
        # beyond that, only the staleness budget (fast path may serve a
        # value up to budget old) and clock drift separate value time from
        # wall time.
        dv_us = value_us - prev_value
        dw_us = (wall_s - prev_wall) * 1e6
        slack_us = (self.staleness_budget_us
                    + rate_slack_us
                    + (rtt_s + prev_rtt) * 1e6
                    + abs(dw_us) * self.drift_ppm * 1e-6
                    + 1_000.0)  # floor for scheduling noise
        if dv_us > dw_us + slack_us:
            # A fast advance that merely restores the best previously
            # observed value-to-wall mapping is the service *catching
            # up* after lagging through an outage (membership churn
            # stalls rounds, so served values fall behind wall, then
            # the first post-reformation round snaps time back to
            # real).  Monotone and converging-to-true-time is the
            # contract; only running ahead of the known mapping is a
            # violation.
            if self._is_catchup(shard, value_us, wall_s, rate_slack_us):
                self.catchups_allowed += 1
            elif self._reconfig_overshoot_ok(shard, value_us, wall_s,
                                             rate_slack_us):
                self.overshoots_tolerated += 1
            else:
                self._flag("staleness", client_id,
                           f"values advanced {dv_us:.0f} us over "
                           f"{dw_us:.0f} us of wall time "
                           f"(allowed slack {slack_us:.0f} us)",
                           list(log))
        elif dv_us < dw_us - slack_us:
            # Falling behind is staleness *debt*: tolerable while a
            # reconfiguration drains its backlog of agreed-but-stale
            # rounds, a violation if it is deep or never repaid.
            self._note_stall(shard, client_id, value_us, wall_s, rtt_s,
                             dv_us, dw_us, slack_us, list(log))
        self._clear_repaid_stall(shard, value_us, wall_s, rtt_s,
                                 rate_slack_us)
        self._raise_anchor(shard, value_us, wall_s, rtt_s)

    def _raise_anchor(self, shard, value_us: int, wall_s: float,
                      rtt_s: float) -> None:
        # A reply *proves* the mapping reached value-minus-receive-time
        # (the value was generated no later than receipt).  Anything
        # more generous (crediting the call's in-flight window) would
        # let one long-parked call overstate the anchor by its whole
        # RTT and manufacture unrepayable debt; the uncertainty is kept
        # with the anchor and spent on the *claims* side instead.
        offset_us = value_us - wall_s * 1e6
        anchor = self._offset_anchor.get(shard)
        if anchor is None or offset_us > anchor[0]:
            self._offset_anchor[shard] = (offset_us, wall_s, rtt_s)

    def _anchor_allowance_us(self, anchor, wall_s: float,
                             rate_slack_us: float) -> float:
        anchor_offset_us, anchor_wall_s, anchor_rtt_s = anchor
        return (self.staleness_budget_us
                + rate_slack_us
                + anchor_rtt_s * 1e6  # the proving reply's own window
                + abs(wall_s - anchor_wall_s) * self.drift_ppm
                + 1_000.0)

    def _is_catchup(self, shard, value_us: int, wall_s: float,
                    rate_slack_us: float) -> bool:
        anchor = self._offset_anchor.get(shard)
        if anchor is None:
            return False
        # Strictest mapping this reply can claim: generated no later
        # than the receive instant.
        offset_us = value_us - wall_s * 1e6
        allowance_us = self._anchor_allowance_us(anchor, wall_s,
                                                 rate_slack_us)
        return offset_us <= anchor[0] + allowance_us

    def _reconfig_overshoot_ok(self, shard, value_us: int, wall_s: float,
                               rate_slack_us: float) -> bool:
        # A reformation re-anchors group time to the new ring's winning
        # view, which can land *above* any previously proven mapping: a
        # restarted member's round repays stalls the shrunk ring had
        # already written off.  With a reconfiguration on record the
        # overshoot is tolerated up to the transient bound — the same
        # budget the stall side gets; past it the jump is a frozen
        # clock's mirror image, time from the future.
        if not self.reconfigs_noted:
            return False
        anchor = self._offset_anchor.get(shard)
        if anchor is None:
            return False
        offset_us = value_us - wall_s * 1e6
        allowance_us = self._anchor_allowance_us(anchor, wall_s,
                                                 rate_slack_us)
        return (offset_us
                <= anchor[0] + allowance_us + self.max_transient_lag_us)

    def _note_stall(self, shard, client_id: str, value_us: int,
                    wall_s: float, rtt_s: float, dv_us: float,
                    dw_us: float, slack_us: float, log: list) -> None:
        anchor = self._offset_anchor.get(shard)
        # Most generous interpretation: the value was generated at the
        # call's send instant, so the lag is smaller by the RTT.
        debt_us = (anchor[0] - (value_us - (wall_s - rtt_s) * 1e6)
                   if anchor is not None else float("inf"))
        if debt_us > self.max_transient_lag_us:
            self._flag("staleness", client_id,
                       f"values advanced {dv_us:.0f} us over "
                       f"{dw_us:.0f} us of wall time "
                       f"(allowed slack {slack_us:.0f} us; "
                       f"lag behind the observed mapping "
                       f"exceeds the {self.max_transient_lag_us} us "
                       f"transient bound)",
                       log)
            return
        self.stalls_tolerated += 1
        open_debt = self._stall_debt.get(shard)
        if open_debt is None or debt_us > open_debt[1]:
            self._stall_debt[shard] = (client_id, debt_us, wall_s, log)

    def _clear_repaid_stall(self, shard, value_us: int, wall_s: float,
                            rtt_s: float, rate_slack_us: float) -> None:
        if shard not in self._stall_debt:
            return
        anchor = self._offset_anchor.get(shard)
        if anchor is None:
            return
        offset_us = value_us - (wall_s - rtt_s) * 1e6
        tolerance_us = self._anchor_allowance_us(anchor, wall_s,
                                                 rate_slack_us)
        if offset_us >= anchor[0] - tolerance_us:
            del self._stall_debt[shard]  # the service caught back up

    def observe_shard_summary(self, src_shard, dst_shard, delta_us: int, *,
                              bound_us: int, error_us: int = 0,
                              resync: bool = False) -> None:
        """Feed one overlay summary delivery: ``delta_us`` is the
        sender's advertised group clock minus the receiver's estimate.

        The gradient bound says ring neighbors stay within the per-hop
        envelope, so ``|delta| <= bound + error`` must hold at every
        delivery — except the first one after a silence (``resync``:
        partition heal, primary failover), where the backlog is being
        steered away and is counted but not judged."""
        self.shard_summaries_checked += 1
        if resync:
            self.shard_resyncs += 1
            return
        if abs(delta_us) > bound_us + error_us:
            self._flag("shard-skew", f"{src_shard}->{dst_shard}",
                       f"neighbor delta {delta_us} us exceeds the hop "
                       f"envelope ({bound_us} us + {error_us} us error "
                       f"bound)",
                       [(src_shard, dst_shard, delta_us, bound_us, error_us)])

    def note_recovery(self, node_id: str) -> None:
        """Record that ``node_id`` was recovered (its post-recovery rounds
        are checked by :meth:`finish`)."""
        self._recovered[node_id] = self._rounds_by_node.get(node_id, 0)

    def note_reconfig(self, node_id: Optional[str] = None) -> None:
        """Record a membership change (join/drain/restart).  The stall
        it causes loses group time permanently, so staleness debt open
        at :meth:`finish` is accepted (up to the transient bound) once
        any reconfiguration is on record."""
        self.reconfigs_noted += 1

    def mark_faulty(self, node_id: str) -> None:
        """Declare ``node_id`` Byzantine for the whole run: none of its
        commits participate in the agreement check (neither as the
        reference value nor as a comparand), and its post-run history is
        not audited — a liar owes us nothing.  The correct replicas must
        still agree among themselves."""
        self._faulty.add(node_id)

    def note_corruption(self, node_id: str, *, round_bound: int = 2) -> None:
        """Record that a *correct* replica's state was scrambled now.

        For the next ``round_bound`` completed rounds the replica is in
        its self-stabilization window and its commits are excluded from
        agreement; after that the oracle re-enforces agreement, and
        :meth:`finish` flags a ``stabilization`` violation if the node
        never completed a round beyond the window (it failed to
        reconverge)."""
        self._corrupted[node_id] = (
            self._rounds_by_node.get(node_id, 0), round_bound)

    def _excluded(self, node: str) -> bool:
        """True while ``node``'s commits sit outside the agreement set."""
        if node in self._faulty:
            return True
        window = self._corrupted.get(node)
        if window is not None:
            rounds_at, bound = window
            if self._rounds_by_node.get(node, 0) - rounds_at <= bound:
                return True
        return False

    def _on_trace(self, event) -> None:
        if event.kind != "round.complete":
            return
        node = event.node
        group_us = event.fields.get("group_us")
        # The group is part of the round identity: a sharded run
        # completes independent rounds with identical (thread, round)
        # coordinates in every shard.
        key = (event.fields.get("group"), event.fields.get("thread"),
               event.fields.get("round"))
        self.rounds_checked += 1
        self._rounds_by_node[node] = self._rounds_by_node.get(node, 0) + 1
        if self._excluded(node):
            return
        seen = self._rounds.get(key)
        if seen is None:
            self._rounds[key] = (group_us, node)
        elif seen[0] != group_us:
            self._flag("agreement", node,
                       f"round {key[2]} of thread {key[1]!r}: {node} "
                       f"committed group={group_us} but {seen[1]} "
                       f"committed group={seen[0]}",
                       [seen, (group_us, node)])

    # -- post-run checks -------------------------------------------------

    def finish(self, bed=None, *, group: Optional[str] = None,
               groups: Optional[List[str]] = None) -> None:
        """Run the end-of-run checks against the testbed's replicas.

        ``group`` audits one group; ``groups`` audits several (one per
        shard in sharded runs), over what ``bed.record()`` had kept.  The
        recovery/stabilization checks are per node and run once either way.
        """
        self.detach()
        audit = list(groups) if groups is not None else (
            [group] if group is not None else [])
        if bed is not None:
            for audited in audit:
                if audited not in bed.services:
                    continue
                for node_id, replica in bed.replicas(audited).items():
                    if node_id in self._faulty:
                        continue  # a Byzantine replica owes no identity
                    stats = getattr(replica.time_source, "stats", None)
                    repaired = sorted((what, count) for what, count in getattr(
                        stats, "stabilizations", {}).items()
                        if what in ConsistentTimeService.ROUND_REPAIRS)
                    if repaired and not self._corrupted:
                        self._flag("stabilization", node_id, f"repaired {repaired} "
                                   f"with no corrupt-state on record", repaired)
                    recorder = replica.time_source.recorder
                    for entry in recorder.history if recorder else ():
                        group_us, physical_us, offset_us = entry
                        if offset_us != group_us - physical_us:
                            self._flag(
                                "offset", node_id,
                                f"commit {entry} violates "
                                f"offset = group - physical "
                                f"({offset_us} != {group_us - physical_us})",
                                recorder.history[-8:])
                            break
        if not self.reconfigs_noted and not self._recovered:
            # Membership changes (and crash recoveries) stall rounds
            # and permanently shift the mapping down by the stall; with
            # none on record, lag that was never repaid is a frozen or
            # slow clock, not reconfiguration turbulence.
            for shard, (subject, debt_us, wall_s, log) in sorted(
                    self._stall_debt.items(), key=lambda kv: str(kv[0])):
                where = f" (shard {shard})" if shard is not None else ""
                self._flag(
                    "staleness", subject,
                    f"served values fell {debt_us:.0f} us behind the "
                    f"observed value-to-wall mapping{where} and never "
                    f"caught back up — with no reconfiguration or "
                    f"recovery on record the lag cannot be membership "
                    f"turbulence",
                    log)
        for node_id, rounds_before in self._recovered.items():
            if self._rounds_by_node.get(node_id, 0) <= rounds_before:
                self._flag(
                    "recovery", node_id,
                    "recovered replica completed no CCS round after "
                    "recovery — its clock offset was never re-derived",
                    [("rounds_before_recovery", rounds_before)])
        for node_id, (rounds_at, bound) in self._corrupted.items():
            if node_id in self._faulty:
                continue  # corruption of a liar proves nothing
            completed = self._rounds_by_node.get(node_id, 0) - rounds_at
            if completed <= bound:
                self._flag(
                    "stabilization", node_id,
                    f"corrupted replica completed only {completed} round(s) "
                    f"afterwards — never left its {bound}-round repair "
                    f"window, so reconvergence was not demonstrated",
                    [("rounds_at_corruption", rounds_at),
                     ("round_bound", bound)])

    # -- results ---------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def _flag(self, check: str, subject: str, detail: str,
              transcript: List[Any]) -> None:
        # The subject's own recent traces lead; other recent traffic
        # follows (an agreement violation's subject is a node, whose
        # relevant operations are whatever clients were running).
        trace_ids = list(self._traces.get(subject, []))
        for trace_id in self._recent_traces:
            if trace_id not in trace_ids:
                trace_ids.append(trace_id)
        violation = Violation(check, subject, detail, transcript,
                              trace_ids=trace_ids[-16:])
        if self.flight_recorder is not None and self.dump_dir is not None:
            from pathlib import Path

            index = len(self.violations)
            try:
                violation.flight_dump = self.flight_recorder.dump(
                    Path(self.dump_dir) / f"flight-violation-{index}.json",
                    reason=f"oracle-violation:{check}",
                    context={"check": check, "subject": subject,
                             "detail": detail,
                             "trace_ids": violation.trace_ids})
            except OSError:
                pass  # a full disk must not mask the violation itself
        self.violations.append(violation)

    def report(self) -> Dict[str, Any]:
        """The oracle's half of the JSON verdict."""
        return {
            "ok": self.ok,
            "replies_checked": self.replies_checked,
            "rounds_checked": self.rounds_checked,
            "clients": len(self._replies),
            "migrations_checked": self.migrations_checked,
            "catchups_allowed": self.catchups_allowed,
            "overshoots_tolerated": self.overshoots_tolerated,
            "stalls_tolerated": self.stalls_tolerated,
            "reconfigs_noted": self.reconfigs_noted,
            "shard_summaries_checked": self.shard_summaries_checked,
            "shard_resyncs": self.shard_resyncs,
            "faulty": sorted(self._faulty),
            "corrupted": sorted(self._corrupted),
            "violations": [v.as_dict() for v in self.violations],
        }
