"""EXT-RECOVERY workload: integration of a new clock (Section 3.2).

A three-way service is running and answering timestamped requests; a
fourth replica joins mid-run.  The workload verifies and measures that

* the group clock stays strictly monotone across the join,
* the joiner's subsequent readings are identical to the old members',
* the joiner adopted its offset via the special CCS round, and
* the state transfer carried the CCS round counters so rounds align.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..obs import Bus
from ..replication import Application
from .load import last_readings, paper_bed, timed_calls


class RecoveryClockApp(Application):
    """Stateful time server: counts requests, remembers timestamps."""

    def __init__(self):
        self.count = 0
        self.stamps: List[int] = []

    def stamped(self, ctx):
        yield ctx.compute(15e-6)
        value = yield ctx.gettimeofday()
        self.count += 1
        self.stamps.append(value.micros)
        return (self.count, value.micros)

    def get_state(self):
        return {"count": self.count, "stamps": list(self.stamps)}

    def set_state(self, state):
        self.count = state["count"]
        self.stamps = list(state["stamps"])


@dataclass
class RecoveryResult:
    """Outcome of one join-mid-run experiment."""

    seed: int
    before_us: List[int] = field(default_factory=list)
    after_us: List[int] = field(default_factory=list)
    #: The joiner's readings for the post-join calls.
    joiner_after_us: List[int] = field(default_factory=list)
    #: Offset adoptions the joiner performed while recovering.
    recovery_adoptions: int = 0
    #: Counts observed by the joiner vs an old member (state equality).
    joiner_count: int = 0
    member_count: int = 0
    #: Time from replica creation to state-transfer completion, seconds.
    integration_time_s: float = 0.0

    @property
    def monotone(self) -> bool:
        sequence = self.before_us + self.after_us
        return all(b > a for a, b in zip(sequence, sequence[1:]))

    @property
    def joiner_consistent(self) -> bool:
        return self.joiner_after_us == self.after_us[-len(self.joiner_after_us):]


def run_recovery_workload(
    *,
    seed: int = 0,
    calls_before: int = 6,
    calls_after: int = 6,
    obs: Optional[Bus] = None,
) -> RecoveryResult:
    """Run service, join a fourth replica mid-run, measure integration."""
    # Recording: the joiner's source gets a recorder when it is added.
    bed, client = paper_bed(
        seed, RecoveryClockApp, ["n1", "n2"], record=True,
        cluster=dict(clock_epoch_spread_s=30.0), obs=obs)

    def stamps(count):
        return [micros for _, micros in
                timed_calls(bed, client, "svc", "stamped", count)]

    result = RecoveryResult(seed=seed)
    result.before_us = stamps(calls_before)

    joined_at = bed.sim.now
    joiner = bed.add_replica("svc", "n3", RecoveryClockApp, time_source="cts")
    while not joiner.state_transfer.ready and bed.sim.now < joined_at + 5.0:
        bed.run(0.01)
    result.integration_time_s = bed.sim.now - joined_at

    result.after_us = stamps(calls_after)
    bed.run(0.05)
    result.joiner_after_us = last_readings(joiner, calls_after)
    result.recovery_adoptions = joiner.time_source.stats.recovery_adoptions
    result.joiner_count = joiner.app.count
    result.member_count = bed.replicas("svc")["n1"].app.count
    return result
