"""What the benchmark runs and what it reports: workloads and metrics.

``BENCHMARK.json`` at the repository root restates these tables for the
driver; ``bench/test_bench_smoke.py`` checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Back-to-back trials (fresh beds) per run; end-to-end metrics are the
#: median trial.
TRIALS = 4
#: ``--seconds`` the committed record and ``BENCHMARK.json`` use.
RUN_SECONDS = 18
#: Wall seconds of trial budget per slice of the loaded window; the host
#: probe is read between slices (``probe.py``).
SLICE_S = 0.1
#: Service group name on every bed.
GROUP = "timesvc"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "sim" (``Testbed``) or "live" (``LiveTestbed`` on loopback UDP).
    substrate: str
    #: "closed" (``clients`` callers, one op in flight each) or "open"
    #: (arrivals on a schedule at ``rate`` ops per bed-second).
    loop: str
    clients: int
    rate: Optional[float]
    #: Loaded-window length in bed-seconds per wall-second of trial
    #: budget (``--seconds / TRIALS``).  Live beds run in real time, so
    #: 1.0; simulated windows are sized so a trial takes about 5/6 of
    #: its budget on the reference host at the commit that added the
    #: benchmark, which leaves room for a slow host.  The simulated work
    #: therefore stays fixed when the simulator gets faster.
    window_share: float
    #: Per-op deadline, bed-seconds.
    deadline_s: float
    fast_path: bool = True
    loss_rate: float = 0.0
    #: Crash n3 at 1/3 of the window, recover + re-add it at 2/3.
    fault: bool = False
    auth: bool = False

    @property
    def is_sim(self) -> bool:
        return self.substrate == "sim"

    def window_s(self, seconds: float, trials: int = TRIALS) -> float:
        return seconds / trials * self.window_share

    def slices(self, window_s: float) -> int:
        """How many slices a window of ``window_s`` bed-seconds is cut
        into: one per ``SLICE_S`` of the trial's wall-clock budget."""
        return max(1, round(window_s / self.window_share / SLICE_S))


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "sim-closed-c16",
        "saturated simulated bed (16 closed-loop clients, coalescing and "
        "fast path on): sim.kernel, sim.network and totem token handling "
        "do the wall-clock work; where simulator speed-ups must show",
        "sim", "closed", clients=16, rate=None, window_share=0.052,
        deadline_s=0.25),
    Workload(
        "sim-rounds-c1",
        "one closed-loop client, fast path off: every op is exactly one "
        "CCS round (paper Fig. 5); bypass for coalescing and the fast "
        "path, dominated by the idle token and re-armed timers",
        "sim", "closed", clients=1, rate=None, window_share=0.29,
        deadline_s=0.25, fast_path=False),
    Workload(
        "sim-failover",
        "open loop at 4000 ops/s through 0.2 % frame loss, a replica "
        "crash and its recovery by state transfer: membership, "
        "retransmission and the recovery round, with ops due during the "
        "outage counted",
        "sim", "open", clients=16, rate=4000.0, window_share=0.42,
        deadline_s=0.25, loss_rate=0.002, fault=True),
    Workload(
        "live-open-r300",
        "Poisson arrivals at a fixed 300 ops/s over 32 logical clients on "
        "loopback UDP, timed from the due time: request latency well "
        "under capacity and the CPU an idle ring costs per served op",
        "live", "open", clients=32, rate=300.0, window_share=1.0,
        deadline_s=0.5),
    Workload(
        "live-closed-c16",
        "16 closed-loop logical clients on one UDP socket: live capacity, "
        "where the codec, datagrams per op, socket drain and coalescing "
        "do the work; bypass for the HMAC path",
        "live", "closed", clients=16, rate=None, window_share=1.0,
        deadline_s=0.5),
    Workload(
        "live-auth-c16",
        "live-closed-c16 with HMAC-signed frames: every frame pays sign "
        "and verify, so a frame+MAC gain shows here and a shortcut for "
        "unauthenticated frames does not",
        "live", "closed", clients=16, rate=None, window_share=1.0,
        deadline_s=0.5, auth=True),
)

WORKLOAD_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    #: None for per-layer metrics (reported, never gated).
    bound: Optional[float] = None


#: Measured with tracing off, on every workload.  ``ops_per_s``,
#: ``p50_us`` and ``mean_us`` are in the bed's own time: simulated on
#: ``sim-*`` (the paper's cost model; a pure speed-up leaves them
#: bit-identical for a seed) and wall-clock on ``live-*``.
END_TO_END: Tuple[Metric, ...] = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.15),
    Metric("ops_per_s", "1/s", "higher", 0.25),
    Metric("p50_us", "us", "lower", 0.25),
    Metric("mean_us", "us", "lower", 0.25),
    Metric("wall_ms_per_op", "ms", "lower", 0.25),
    Metric("cpu_ms_per_op", "ms", "lower", 0.25),
)

#: Printed and recorded beside the gated metrics by the workloads they
#: apply to: ``p99_us`` and ``failed_share`` by all, ``wall_s_per_sim_s``
#: by ``sim-*``, the last two by ``sim-failover``.  ``--selfcheck`` holds
#: them to these bounds (``failed_share``: +0.001 absolute; ``p99_us``:
#: only where it is simulated time, see README).
EXTRA_END_TO_END: Tuple[Metric, ...] = (
    Metric("p99_us", "us", "lower"),
    Metric("failed_share", "ratio", "lower", 0.001),
    Metric("wall_s_per_sim_s", "s/s", "lower", 0.25),
    Metric("outage_us", "us", "lower", 0.01),
    Metric("recovery_us", "us", "lower", 0.01),
)

_PER_LAYER_SPEC = """
sim.kernel.events_per_op count lower
sim.kernel.events_per_wall_s 1/s higher
sim.kernel.timeouts_per_op count lower
sim.kernel.ns_per_event ns lower
sim.kernel.self_share ratio lower
sim.network.frames_per_op count lower
sim.network.bytes_per_op B lower
sim.network.frames_dropped count lower
sim.network.self_share ratio lower
totem.tokens_per_op count lower
totem.msgs_per_op count lower
totem.retransmissions count lower
totem.token_retransmissions count lower
totem.membership_changes count lower
totem.sends_cancelled count higher
totem.token_hop_us us lower
totem.idle_tokens_per_s 1/s lower
totem.outage_us us lower
totem.self_share ratio lower
replication.requests_per_op count lower
replication.replies_per_op count lower
replication.checkpoints_applied count lower
replication.recovery_us us lower
replication.self_share ratio lower
core.ccs_per_op count lower
core.ops_per_round count higher
core.fast_path_hit_share ratio higher
core.fast_path_fallbacks count lower
core.ccs_suppressed_share ratio higher
core.duplicates_discarded count lower
core.self_share ratio lower
rpc.retries count lower
rpc.timeouts count lower
rpc.self_share ratio lower
net.kernel.events_per_op count lower
net.kernel.idle_cpu_share ratio lower
net.kernel.self_share ratio lower
net.udp.datagrams_per_op count lower
net.udp.bytes_per_op B lower
net.udp.frames_rejected count lower
net.udp.self_share ratio lower
net.wire.encode_us.request us lower
net.wire.encode_us.reply us lower
net.wire.encode_us.ccs us lower
net.wire.encode_us.token us lower
net.wire.decode_us.request us lower
net.wire.decode_us.reply us lower
net.wire.decode_us.ccs us lower
net.wire.decode_us.token us lower
net.wire.self_share ratio lower
net.auth.sign_us us lower
net.auth.verify_us us lower
net.auth.rejected count lower
net.auth.self_share ratio lower
net.daemon.requests_injected count lower
net.daemon.dedup_share ratio lower
net.daemon.replies_forwarded_per_op count lower
net.daemon.self_share ratio lower
control.admission.shed_share ratio lower
control.admission.queued_share ratio lower
control.admission.self_share ratio lower
bench.self_share ratio lower
bench.tracing_overhead_share ratio lower
bench.gen_late_p99_us us lower
bench.p99_us us lower
"""

#: From the traced pass (``--trace 1``); layer = module name.  A metric
#: of a layer the workload does not run reads 0.
PER_LAYER: Tuple[Metric, ...] = tuple(
    Metric(*line.split()) for line in _PER_LAYER_SPEC.split("\n") if line)

#: Layers with a ``*.self_share``.
LAYERS: List[str] = [m.name[:-len(".self_share")] for m in PER_LAYER
                     if m.name.endswith(".self_share")]
