"""EXT-FAILOVER workload: the clock step across a primary failure.

The paper's Section 1 motivation: with primary/backup clock handling the
clock value returned after a failover can roll back or jump far forward;
the consistent time service keeps it monotone.  This workload measures
the step directly for any time source, so the benchmark can put the two
side by side over many seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..obs import Bus
from ..replication import Application
from .load import paper_bed, timed_calls


class ClockReadApp(Application):
    """Minimal time server: burns ``work_s`` of CPU, then returns the
    clock in microseconds."""

    def __init__(self, work_s: float = 15e-6):
        self.work_s = work_s

    def get_time(self, ctx):
        yield ctx.compute(self.work_s)
        value = yield ctx.gettimeofday()
        return value.micros


@dataclass
class FailoverResult:
    """Clock readings straddling one induced primary failure."""

    time_source: str
    seed: int
    before_us: List[int] = field(default_factory=list)
    after_us: List[int] = field(default_factory=list)
    #: Real (simulated) time elapsed between the last pre-crash reading
    #: and the first post-failover reading, microseconds.
    real_gap_us: float = 0.0

    @property
    def step_us(self) -> int:
        """First post-failover value minus last pre-crash value."""
        return self.after_us[0] - self.before_us[-1]

    @property
    def rolled_back(self) -> bool:
        return self.step_us <= 0

    @property
    def fast_forward_us(self) -> float:
        """How far the step exceeds the elapsed real time (clock jumped
        ahead); <= 0 means no fast-forward."""
        return self.step_us - self.real_gap_us

    @property
    def monotone(self) -> bool:
        sequence = self.before_us + self.after_us
        return all(b > a for a, b in zip(sequence, sequence[1:]))


def run_failover_workload(
    *,
    time_source: str = "cts",
    seed: int = 0,
    calls_each_side: int = 5,
    obs: Optional[Bus] = None,
) -> FailoverResult:
    """Measure the clock step across one crash of a passive group's
    primary."""
    bed, client = paper_bed(
        seed, ClockReadApp, settle=0.3, obs=obs,
        cluster=dict(clock_epoch_spread_s=30.0),
        style="passive", time_source=time_source, checkpoint_interval=5)

    result = FailoverResult(time_source=time_source, seed=seed)
    result.before_us = timed_calls(bed, client, "svc", "get_time",
                                   calls_each_side)
    t_crash = bed.sim.now
    primary = next(nid for nid, r in bed.replicas("svc").items() if r.is_primary)
    bed.crash(primary)
    bed.run(0.6)
    result.after_us = timed_calls(bed, client, "svc", "get_time",
                                  calls_each_side)
    result.real_gap_us = (bed.sim.now - t_crash) * 1e6
    return result


def failover_comparison(
    seeds: range,
    *,
    calls_each_side: int = 4,
    obs: Optional[Bus] = None,
) -> dict:
    """Run the failover workload for both time sources over many seeds,
    every bed recording into ``obs`` when one is given.

    Returns per-source summaries used by the EXT-FAILOVER benchmark.
    """
    summary = {}
    for source in ("cts", "primary-backup"):
        results = [
            run_failover_workload(
                time_source=source,
                seed=seed,
                calls_each_side=calls_each_side,
                obs=obs,
            )
            for seed in seeds
        ]
        summary[source] = {
            "results": results,
            "rollbacks": sum(1 for r in results if r.rolled_back),
            "fast_forwards": sum(
                1 for r in results if r.fast_forward_us > 1_000_000
            ),
            "non_monotone": sum(1 for r in results if not r.monotone),
            "worst_step_us": min(r.step_us for r in results),
            "best_step_us": max(r.step_us for r in results),
        }
    return summary
