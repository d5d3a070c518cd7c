"""Figure 5 workload: end-to-end latency with and without the CTS.

Reproduces Section 4.2's first application: "the client invokes a remote
method that returns the current time in two CORBA longs.  The server
simply calls gettimeofday()."  The client runs unreplicated on the ring
leader n0; the server is three-way actively replicated on n1-n3.  The
probability density function of the end-to-end latency is measured at
the client over many invocations, with and without the consistent time
service.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core import CTSStats
from ..obs import Bus
from ..replication import Application
from .load import paper_bed, timed_calls


class TimeServerApp(Application):
    """Returns the current time in two longs (tv_sec, tv_usec)."""

    #: CPU cost of ORB dispatch + servant body before the clock call.
    WORK_S = 80e-6
    #: CPU cost of marshaling the reply after the clock call.
    MARSHAL_S = 30e-6

    def get_time(self, ctx):
        yield ctx.compute(self.WORK_S)
        value = yield ctx.gettimeofday()
        yield ctx.compute(self.MARSHAL_S)
        return (value.seconds, value.microseconds)


#: Per-node CPU speed factors calibrated so the synchronizer skew matches
#: the paper's measured CCS counts (1 / 9,977 / 22 across n1 / n2 / n3):
#: one server replica is consistently much faster, so it decides nearly
#: every round, and the slower replicas' clock operations usually find
#: the winning CCS message already in their input buffers.
PAPER_CPU_PROFILE = {"n1": 0.35, "n2": 1.6, "n3": 0.4}


@dataclass
class LatencyRunResult:
    """Outcome of one latency run."""

    time_source: str
    invocations: int
    #: End-to-end latencies at the client, microseconds, in call order.
    latencies_us: List[int] = field(default_factory=list)
    #: CCS messages transmitted per server node (empty for baselines).
    ccs_transmitted: Dict[str, int] = field(default_factory=dict)
    #: Rounds decided by the time service (0 for baselines).
    rounds: int = 0
    #: Clock operations completed per replica (0 for baselines).
    ops_completed: int = 0
    #: Operations that shared a coalesced round, per replica.
    ops_coalesced: int = 0

    @property
    def mean_us(self) -> float:
        return sum(self.latencies_us) / len(self.latencies_us)


def run_latency_workload(
    *,
    time_source: str = "cts",
    invocations: int = 2_000,
    seed: int = 0,
    cpu_profile: dict = None,
    coalesce: bool = True,
    obs: Optional[Bus] = None,
) -> LatencyRunResult:
    """Run the Figure 5 measurement once.

    ``time_source="cts"`` measures with the consistent time service;
    ``"local"`` measures the same application without it (replica
    consistency is then *not* guaranteed — exactly the paper's caveat).
    ``cpu_profile`` maps node ids to relative CPU speeds; defaults to
    :data:`PAPER_CPU_PROFILE`.  ``obs`` is the bus the bed records
    into (its own by default).
    """
    profile = PAPER_CPU_PROFILE if cpu_profile is None else cpu_profile
    bed, client = paper_bed(
        seed, TimeServerApp, group="timesvc",
        cluster=dict(cpu_factor_overrides=profile),
        style="active", time_source=time_source, coalesce=coalesce, obs=obs)

    timed_calls(bed, client, "timesvc", "get_time", invocations, timeout=5.0)
    bed.run(0.05)

    run = LatencyRunResult(
        time_source=time_source,
        invocations=invocations,
        latencies_us=list(client.stats.latencies_us),
    )
    for node_id, replica in bed.replicas("timesvc").items():
        stats = getattr(replica.time_source, "stats", None)
        if isinstance(stats, CTSStats):
            run.ccs_transmitted[node_id] = stats.ccs_transmitted
            run.rounds = max(run.rounds, stats.rounds_accepted)
            run.ops_completed = max(run.ops_completed, stats.ops_completed)
            run.ops_coalesced = max(run.ops_coalesced, stats.ops_coalesced)
    return run
