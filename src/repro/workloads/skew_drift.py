"""Figure 6 / Section 4.3 workload: skew and drift of the group clock.

Reproduces the paper's second application: one remote invocation
triggers a sequence of clock-related operations at each server replica;
between consecutive operations each replica inserts an empty-iteration
busy loop of 30,000 / 60,000 or 90,000 iterations — chosen at random
*per replica per round* — producing delays of roughly 60-400 us, "to
study the behavior of the consistent time service when the synchronizer
rotates randomly among the server replicas".

Collected per run:

* per-replica round history (group value, physical value, offset) —
  Figures 6(a), 6(b), 6(c);
* the synchronizer of every round — rotation statistics;
* CCS messages transmitted per node — the Section 4.3 duplicate-
  suppression counts (1 / 9,977 / 22 in the paper's run);
* group clock vs simulated real time — drift measurements.

:func:`run_drift_ablation` runs it under the three Section 3.3
drift strategies (EXT-DRIFT).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..core import (
    AlignedReferenceSteering,
    DriftCompensation,
    MeanDelayCompensation,
    NoCompensation,
)
from ..obs import Bus
from ..replication import Application
from ..sim import US_PER_SEC, ClusterConfig, RngRegistry
from ..testbed import Testbed

#: The paper's three busy-loop lengths (empty iterations).
ITERATION_CHOICES = (30_000, 60_000, 90_000)


class SkewDriftApp(Application):
    """Performs ``count`` clock operations with random inserted delays."""

    def __init__(self, workload_seed: int = 0):
        self.workload_seed = workload_seed
        self._rngs = RngRegistry(workload_seed)

    def run_rounds(self, ctx, count):
        rng = self._rngs.stream(f"delay.{ctx.node.node_id}")
        for _ in range(count):
            iterations = rng.choice(ITERATION_CHOICES)
            yield ctx.busy_loop(iterations)
            yield ctx.gettimeofday()
        return count


@dataclass
class ReplicaSeries:
    """One replica's per-round measurements (workload rounds only)."""

    node_id: str
    #: (group_us, physical_us, offset_us) per round.
    history: List[Tuple[int, int, int]] = field(default_factory=list)
    #: Simulated real time (seconds) when each value was returned.
    times_s: List[float] = field(default_factory=list)

    def physical_intervals(self) -> List[int]:
        """Figure 6(a): interval between consecutive clock operations as
        seen by the physical hardware clock."""
        physicals = [p for _, p, _ in self.history]
        return [b - a for a, b in zip(physicals, physicals[1:])]

    def group_intervals(self) -> List[int]:
        """Figure 6(a): the same intervals as seen by the group clock."""
        groups = [g for g, _, _ in self.history]
        return [b - a for a, b in zip(groups, groups[1:])]

    def offsets(self) -> List[int]:
        """Figure 6(b): the clock offset after each round."""
        return [o for _, _, o in self.history]

    def normalized_physical(self) -> List[int]:
        """Figure 6(c): physical clock normalized to its first reading."""
        physicals = [p for _, p, _ in self.history]
        return [p - physicals[0] for p in physicals]

    def normalized_group(self) -> List[int]:
        """Figure 6(c): group clock normalized to the first round."""
        groups = [g for g, _, _ in self.history]
        return [g - groups[0] for g in groups]


@dataclass
class SkewDriftResult:
    """Outcome of one skew/drift run."""

    rounds: int
    series: Dict[str, ReplicaSeries] = field(default_factory=dict)
    #: Synchronizer (winner) of each workload round, in round order.
    winners: List[str] = field(default_factory=list)
    #: CCS messages transmitted per node (the Section 4.3 counts).
    ccs_transmitted: Dict[str, int] = field(default_factory=dict)
    ccs_suppressed: Dict[str, int] = field(default_factory=dict)
    rounds_from_buffer: Dict[str, int] = field(default_factory=dict)

    @property
    def total_transmitted(self) -> int:
        return sum(self.ccs_transmitted.values())

    def winner_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for winner in self.winners:
            counts[winner] = counts.get(winner, 0) + 1
        return counts

    def group_drift_ppm(self) -> float:
        """Long-run drift of the group clock against simulated real time
        (negative: the group clock runs slow, as the paper observes)."""
        series = next(iter(self.series.values()))
        if len(series.history) < 2:
            return 0.0
        group_span = series.history[-1][0] - series.history[0][0]
        real_span_us = (series.times_s[-1] - series.times_s[0]) * 1e6
        if real_span_us == 0:
            return 0.0
        return (group_span - real_span_us) / real_span_us * 1e6


def run_skew_drift_workload(
    *,
    rounds: int = 1_000,
    seed: int = 0,
    drift: Optional[DriftCompensation] = None,
    drift_factory=None,
    obs: Optional[Bus] = None,
) -> SkewDriftResult:
    """Run the Figure 6 measurement once and collect all series.

    ``drift_factory`` (``Testbed -> DriftCompensation``) builds strategies
    that need simulation access, e.g. reference steering against the
    testbed's notion of real time.
    """
    bed = Testbed(seed=seed, cluster_config=ClusterConfig(num_nodes=4),
                  obs=obs)
    if drift_factory is not None:
        drift = drift_factory(bed)
    bed.record()
    bed.deploy(
        "skewsvc",
        lambda: SkewDriftApp(workload_seed=seed),
        ["n1", "n2", "n3"],
        style="active",
        time_source="cts",
        drift=drift,
    )
    client = bed.client("n0")
    bed.start()

    # Baseline: each service's counters and how many rounds it committed
    # and readings it served before the workload (state-transfer special
    # rounds: a replica commits every one but reads only in its own) —
    # taken off below.
    sources = {nid: r.time_source for nid, r in bed.replicas("skewsvc").items()}
    pre_stats = {nid: replace(s.stats) for nid, s in sources.items()}
    pre_rounds = {nid: len(s.recorder.history) for nid, s in sources.items()}
    pre_readings = {nid: len(s.recorder.readings) for nid, s in sources.items()}
    pre_winners = max(len(s.recorder.winners) for s in sources.values())

    def scenario():
        result = yield client.call(
            "skewsvc", "run_rounds", rounds, timeout=10_000.0
        )
        assert result.ok, result.error
        return result.value

    bed.run_process(scenario())
    bed.run(0.05)

    result = SkewDriftResult(rounds=rounds)
    for node_id, service in sources.items():
        base, stats, pre = pre_rounds[node_id], service.stats, pre_stats[node_id]
        series = ReplicaSeries(node_id)
        series.history = list(service.recorder.history[base:])
        series.times_s = [t for t, _, _, _ in
                          service.recorder.readings[pre_readings[node_id]:]]
        result.series[node_id] = series
        result.ccs_transmitted[node_id] = (
            stats.ccs_transmitted - pre.ccs_transmitted)
        result.ccs_suppressed[node_id] = stats.ccs_suppressed - pre.ccs_suppressed
        result.rounds_from_buffer[node_id] = stats.rounds_from_buffer
    recorder = next(iter(sources.values())).recorder
    result.winners = [w for _, _, w in recorder.winners[pre_winners:]]
    return result


def run_drift_ablation(
    *, rounds: int, seed: int, obs: Optional[Bus] = None
) -> Tuple[Dict[str, SkewDriftResult], int]:
    """EXT-DRIFT: the Figure 6 workload under each Section 3.3 strategy.

    Returns ``({"none" | "mean-delay" | "reference-steering": result},
    mean_delay_us)``.  The mean delay is calibrated from the
    uncompensated run: its average per-round loss is exactly the
    measured drift per round.  Reference steering follows a drift-free
    reference (e.g. GPS time) — here the testbed's simulated real time,
    epoch-aligned at the first round (the paper's source has "a
    transient skew from real time but no drift").
    """
    plain = run_skew_drift_workload(rounds=rounds, seed=seed,
                                    drift=NoCompensation(), obs=obs)
    series = next(iter(plain.series.values()))
    real_span_us = (series.times_s[-1] - series.times_s[0]) * US_PER_SEC
    group_span_us = series.history[-1][0] - series.history[0][0]
    mean_delay = max(1, int((real_span_us - group_span_us) / rounds))
    results = {
        "none": plain,
        "mean-delay": run_skew_drift_workload(
            rounds=rounds, seed=seed, drift=MeanDelayCompensation(mean_delay),
            obs=obs),
        "reference-steering": run_skew_drift_workload(
            rounds=rounds, seed=seed,
            drift_factory=lambda bed: AlignedReferenceSteering(
                lambda: int(bed.sim.now * US_PER_SEC), proportion=0.2),
            obs=obs),
    }
    return results, mean_delay
