"""Experiment workload generators (S15 in DESIGN.md): the paper's two
measurement applications plus the failover, recovery, divergence,
partition and group-size scenarios."""

from .failover import (
    ClockReadApp,
    FailoverResult,
    failover_comparison,
    run_failover_workload,
)
from .latency import (
    LatencyRunResult,
    PAPER_CPU_PROFILE,
    TimeServerApp,
    run_latency_workload,
)
from .load import (
    ClockSessions,
    LoadResult,
    ZipfPicker,
    closed_loop,
    open_loop,
    percentile,
    service_counters,
    timed_calls,
)
from .loadgen import (
    ThroughputApp,
    run_loadgen,
    run_loadgen_chaos,
    run_loadgen_comparison,
    run_loadgen_sharded,
    run_throughput_point,
    run_throughput_sweep,
)
from .openloop import calibrate_capacity, open_loop_point, run_overload_suite
from .recovery import RecoveryClockApp, RecoveryResult, run_recovery_workload
from .scenarios import measure_divergence, run_at_size, run_partition_cycle
from .skew_drift import (
    ITERATION_CHOICES,
    ReplicaSeries,
    SkewDriftApp,
    SkewDriftResult,
    run_skew_drift_workload,
)

__all__ = [
    "ClockReadApp",
    "ClockSessions",
    "FailoverResult",
    "ITERATION_CHOICES",
    "LatencyRunResult",
    "LoadResult",
    "PAPER_CPU_PROFILE",
    "RecoveryClockApp",
    "RecoveryResult",
    "ReplicaSeries",
    "SkewDriftApp",
    "SkewDriftResult",
    "ThroughputApp",
    "TimeServerApp",
    "ZipfPicker",
    "calibrate_capacity",
    "closed_loop",
    "failover_comparison",
    "measure_divergence",
    "open_loop",
    "open_loop_point",
    "percentile",
    "run_at_size",
    "run_failover_workload",
    "run_latency_workload",
    "run_loadgen",
    "run_loadgen_chaos",
    "run_loadgen_comparison",
    "run_loadgen_sharded",
    "run_overload_suite",
    "run_partition_cycle",
    "run_recovery_workload",
    "run_skew_drift_workload",
    "run_throughput_point",
    "run_throughput_sweep",
    "service_counters",
    "timed_calls",
]
