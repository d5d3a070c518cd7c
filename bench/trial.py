"""One trial: a fresh bed, set-up, the timed loaded window, the drain,
the correctness gate, and the numbers read off afterwards.

Only the loaded window is timed.  Ring formation, settle and the probe
ops go to ``setup_s``; the drain of ops still in flight when the window
closes runs untimed.

The window runs in slices with a reading of the host probe between them
(``probe.py``).  Every wall-clock duration - a slice's wall and CPU
time, the latency of an op answered in it - is rescaled to the reference
host's speed by the readings around its slice, and the metrics are then
computed from the rescaled durations.  Simulated-time figures, and the
offered rate of a live open loop, are what they are on any host and are
not rescaled.  The same figures from the durations as the clock gave
them are kept beside them as ``Trial.raw``.
"""

from __future__ import annotations

import gc
import statistics
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.sim.faults import FaultPlan

from .beds import Bed, build_live_bed, build_sim_bed
from .load import (
    Ledger,
    LiveClient,
    live_probe,
    open_schedule,
    sim_probe,
    start_live_closed,
    start_live_open,
    start_sim_closed,
    start_sim_open,
)
from .probe import HostProbe, to_reference
from .spec import GROUP, Workload
from .tracing import Tracer

FAULT_NODE = "n3"
#: Idle window measured before the loaded one in the traced pass,
#: bed-seconds.
IDLE_S = {"sim": 0.02, "live": 1.0}


def percentile(ordered: List[float], fraction: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if not ordered:
        return 0.0
    rank = (len(ordered) - 1) * fraction
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


@dataclass
class Trial:
    """What one trial measured."""

    workload: str
    seed: int
    window_s: float
    traced: bool
    attempted: int = 0
    failed: int = 0
    failures: Dict[str, int] = field(default_factory=dict)
    #: Structural invariants that did not hold (each also counts as one
    #: failed op).
    violations: List[str] = field(default_factory=list)
    #: Served ops behind the percentiles.
    samples: int = 0
    #: End-to-end metrics of this trial, by name; wall-clock durations
    #: rescaled to the reference host's speed.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: The rescaled metrics again, from the durations as the clock gave
    #: them.
    raw: Dict[str, float] = field(default_factory=dict)
    #: Per slice of the loaded window: wall seconds, CPU seconds, ops
    #: served, host probe reading (ns per round).
    slices: List[List[float]] = field(default_factory=list)
    #: Layer counters over the loaded window, and the idle figures and
    #: harness numbers the per-layer metrics are derived from.
    counters: Dict[str, float] = field(default_factory=dict)


class CounterReader:
    """Sums the layers' public stats objects.

    A crash and recovery replace a node's processor, runtime and replica
    with fresh ones whose counters restart at zero, so every stats
    object ever seen stays in the sum.
    """

    def __init__(self, bed: Bed, client: Optional[LiveClient]):
        self.bed = bed
        self.client = client
        self._processors: Dict[int, object] = {}
        self._replicas: Dict[int, object] = {}

    def read(self) -> Dict[str, float]:
        bed, testbed = self.bed, self.bed.testbed
        for processor in testbed.processors.values():
            self._processors[id(processor)] = processor
        for replica in testbed.replicas(GROUP).values():
            self._replicas[id(replica)] = replica
        totem = [p.stats for p in self._processors.values()]
        replicas = [r.stats for r in self._replicas.values()]
        cts = [r.time_source.stats for r in self._replicas.values()]
        ifaces = [testbed.node(node_id).iface for node_id in testbed.node_ids]
        counters = {
            "totem.tokens": sum(s.tokens_forwarded for s in totem),
            "totem.msgs": sum(s.messages_multicast for s in totem),
            "totem.retransmissions": sum(s.retransmissions for s in totem),
            "totem.token_retransmissions":
                sum(s.token_retransmissions for s in totem),
            "totem.membership_changes":
                sum(s.membership_changes for s in totem),
            "totem.sends_cancelled": sum(s.sends_cancelled for s in totem),
            "replication.requests":
                sum(s.requests_processed for s in replicas),
            "replication.replies": sum(s.replies_sent for s in replicas),
            "replication.checkpoints_applied":
                sum(s.checkpoints_applied for s in replicas),
            "core.ccs_sent": sum(s.ccs_sent for s in cts),
            "core.ccs_suppressed": sum(s.ccs_suppressed for s in cts),
            "core.ops_completed": sum(s.ops_completed for s in cts),
            "core.fast_path_hits": sum(s.fast_path_hits for s in cts),
            "core.fast_path_fallbacks":
                sum(s.fast_path_fallbacks for s in cts),
            "core.duplicates_discarded":
                sum(s.duplicates_discarded for s in cts),
            # Every replica completes every round; the group's count is
            # the furthest any replica got.
            "core.rounds": max(s.rounds_completed for s in cts),
            "net.frames": sum(i.frames_sent for i in ifaces),
            "net.bytes": sum(i.bytes_sent for i in ifaces),
        }
        if bed.workload.is_sim:
            counters["sim.network.frames_dropped"] = (
                testbed.cluster.network.frames_dropped)
            counters["rpc.retries"] = bed.rpc.stats.retries
            counters["rpc.timeouts"] = bed.rpc.stats.timeouts
        else:
            rejected = sum(i.frames_rejected for i in ifaces)
            by_auth = sum(
                count for i in ifaces
                for reason, count in i.rejected_by_reason.items()
                if reason.startswith("auth-"))
            counters["net.udp.frames_rejected"] = (
                rejected + self.client.frames_rejected)
            counters["net.auth.rejected"] = by_auth
            gateways = bed.gateways
            admission = [g.admission.stats for g in gateways]
            counters.update({
                "net.daemon.requests_injected":
                    sum(g.requests_injected for g in gateways),
                "net.daemon.requests_deduplicated":
                    sum(g.requests_deduplicated for g in gateways),
                "net.daemon.replies_forwarded":
                    sum(g.replies_forwarded for g in gateways),
                "control.admission.admitted":
                    sum(s.admitted for s in admission),
                "control.admission.queued": sum(s.queued for s in admission),
                "control.admission.shed":
                    sum(s.shed_total for s in admission),
            })
        return counters


def run_trial(workload: Workload, seed: int, window_s: float,
              tracer: Optional[Tracer] = None) -> Trial:
    """Run one trial of ``workload`` on a fresh bed seeded with ``seed``.

    With a ``tracer`` the bed's layer entry points are wrapped once
    set-up is done, spans are recorded over the loaded window only, and
    an idle window is measured first.
    """
    trial = Trial(workload.name, seed, window_s, tracer is not None)
    ledger = Ledger(workload.clients, workload.deadline_s)
    probe = HostProbe()
    bed = client = None
    try:
        reading = probe.read()
        started = time.perf_counter()
        build = build_sim_bed if workload.is_sim else build_live_bed
        bed = build(workload, seed, record_token_times=tracer is not None)
        if workload.is_sim:
            sim_probe(bed, ledger)
        else:
            client = LiveClient(bed, ledger)
            live_probe(bed, client)
        trial.raw["setup_s"] = time.perf_counter() - started
        before_ns, reading = reading, probe.read()
        trial.metrics["setup_s"] = to_reference(
            trial.raw["setup_s"], before_ns, reading)
        reader = CounterReader(bed, client)
        if tracer is not None:
            tracer.install(bed, client)
            _measure_idle(bed, reader, trial)
            reading = probe.read()
        _run_window(bed, client, ledger, reader, trial, tracer, probe,
                    reading)
    finally:
        if tracer is not None:
            tracer.uninstall()
        if client is not None:
            client.close()
        if bed is not None:
            bed.close()
        probe.close()
    return trial


def _measure_idle(bed: Bed, reader: CounterReader, trial: Trial) -> None:
    idle_s = IDLE_S[bed.workload.substrate]
    tokens = reader.read()["totem.tokens"]
    wall, cpu = time.perf_counter(), time.process_time()
    bed.testbed.run(idle_s)
    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    trial.counters["idle.tokens_per_s"] = (
        (reader.read()["totem.tokens"] - tokens) / idle_s)
    trial.counters["idle.cpu_share"] = (
        0.0 if bed.workload.is_sim else cpu / wall)


def _run_window(bed: Bed, client: Optional[LiveClient], ledger: Ledger,
                reader: CounterReader, trial: Trial,
                tracer: Optional[Tracer], probe: HostProbe,
                reading: float) -> None:
    """The loaded window; ``reading`` is the host probe's latest."""
    workload, window_s = bed.workload, trial.window_s
    now = (lambda: bed.sim.now) if workload.is_sim else client.now
    ledger.start_window()
    before = reader.read()
    tokens_seen = {id(p): len(p.token_arrival_times)
                   for p in bed.testbed.processors.values()}
    gc.collect()
    start = now()
    end = start + window_s
    fault = _Fault(bed, window_s, tracer) if workload.fault else None

    if workload.loop == "open":
        schedule = open_schedule(workload, trial.seed, start, window_s)
        if workload.is_sim:
            start_sim_open(bed, ledger, schedule)
        else:
            start_live_open(client, schedule)
    elif workload.is_sim:
        start_sim_closed(bed, ledger, end)
    else:
        start_live_closed(bed, client, end)

    if tracer is not None:
        tracer.on = True
    # A slice is a stretch of the window plus the probe reading that
    # closes it, and is judged by the readings at both its ends.
    mark = (time.perf_counter(), time.process_time())
    slices: List[Slice] = []
    count = workload.slices(window_s)
    for index in range(1, count + 1):
        boundary = start + window_s * index / count
        if workload.is_sim:
            bed.sim.run(until=boundary)
        else:
            bed.testbed.run(max(0.0, boundary - now()))
        before_ns, reading = reading, probe.read()
        previous, mark = mark, (time.perf_counter(), time.process_time())
        slices.append(Slice(now(), mark[0] - previous[0],
                            mark[1] - previous[1], (before_ns + reading) / 2))
    if tracer is not None:
        tracer.on = False
    after = reader.read()

    # Drain, untimed: ops in flight at the close still count.
    def settled() -> bool:
        return len(ledger.served) + ledger.failed >= ledger.attempted

    if workload.is_sim:
        give_up = end + workload.deadline_s + 0.01
        while not settled() and bed.sim.now < give_up:
            bed.sim.run(until=bed.sim.now + 0.001)
    else:
        bed.testbed.wait_until(settled, timeout=workload.deadline_s + 1.0,
                               poll=0.005)

    counters = trial.counters
    counters.update({name: after[name] - before[name] for name in after})
    counters["window.wall_s"] = sum(s.wall_s for s in slices)
    hops = _token_hops(bed, tokens_seen)
    counters["totem.token_hop_us"] = (
        statistics.median(hops) * 1e6 if hops else 0.0)
    if client is not None:
        counters["bench.duplicate_replies"] = client.duplicate_replies
        counters["bench.gen_late_p99_us"] = percentile(
            sorted(ledger.late_s), 0.99) * 1e6

    # An op belongs to the slice its reply arrived in; a reply during the
    # drain is judged by the last slice but counts in none.
    ends = [s.end for s in slices]
    placed = []
    for at, latency in ledger.served:
        index = min(bisect_left(ends, at), len(slices) - 1)
        slices[index].served += at <= end
        placed.append((index, latency))
    trial.samples = len(placed)
    trial.metrics.update(
        window_metrics(workload, window_s, slices, placed, rescale=True))
    trial.raw.update(
        window_metrics(workload, window_s, slices, placed, rescale=False))
    trial.slices = [[s.wall_s, s.cpu_s, s.served, s.probe_ns]
                    for s in slices]
    counters["window.served"] = sum(s.served for s in slices)
    # 1.0: the host ran the window at the reference host's speed.
    counters["host.speed"] = (
        sum(to_reference(s.wall_s, s.probe_ns) for s in slices)
        / sum(s.wall_s for s in slices))
    if fault is not None:
        trial.metrics.update(fault.measure(ledger))

    _check_invariants(bed, trial, fault)
    trial.attempted = ledger.attempted
    trial.failures = dict(ledger.failures)
    trial.failed = min(ledger.attempted,
                       ledger.failed + len(trial.violations))
    trial.metrics["failed_share"] = trial.failed / max(trial.attempted, 1)


@dataclass
class Slice:
    """A stretch of the loaded window."""

    #: Bed time it ended at.
    end: float
    wall_s: float
    cpu_s: float
    #: Host probe, ns per round: mean of the readings at its two ends.
    probe_ns: float
    #: Ops whose reply arrived in it.
    served: int = 0


def window_metrics(workload: Workload, window_s: float,
                   slices: List[Slice], placed: List[Tuple[int, float]],
                   rescale: bool) -> Dict[str, float]:
    """The window's end-to-end metrics from the slices' clocks and
    ``placed``, the (slice index, latency) of every served op.

    With ``rescale`` every wall-clock duration is first rescaled to the
    reference host's speed by the ``probe_ns`` of its slice.  The
    latencies of a simulated bed are simulated time, and the window of a
    live open loop is set by its schedule: those stay as they are.
    """
    scales = [to_reference(1.0, s.probe_ns) if rescale else 1.0
              for s in slices]
    wall = sum(s.wall_s * scale for s, scale in zip(slices, scales))
    cpu = sum(s.cpu_s * scale for s, scale in zip(slices, scales))
    latencies = sorted(
        latency if workload.is_sim else latency * scales[index]
        for index, latency in placed)
    ops = max(sum(s.served for s in slices), 1)
    if workload.loop == "open" and not workload.is_sim:
        # The schedule sets how long the window lasts, and a ring that
        # never rests how much CPU that burns, whatever the host's speed.
        wall = sum(s.wall_s for s in slices)
        cpu = sum(s.cpu_s for s in slices)
    # The bed time the ops were served in.
    span_s = window_s if workload.is_sim else wall
    metrics = {
        "ops_per_s": ops / span_s,
        "p50_us": percentile(latencies, 0.50) * 1e6,
        "mean_us": statistics.fmean(latencies) * 1e6 if latencies else 0.0,
        "p99_us": percentile(latencies, 0.99) * 1e6,
        "wall_ms_per_op": wall * 1e3 / ops,
        "cpu_ms_per_op": cpu * 1e3 / ops,
    }
    if workload.is_sim:
        metrics["wall_s_per_sim_s"] = wall / window_s
    return metrics


def _token_hops(bed: Bed, seen: Dict[int, int]) -> List[float]:
    """Gaps between consecutive token arrivals anywhere on the ring
    during the window (empty unless the bed records token times)."""
    arrivals = sorted(
        at for processor in bed.testbed.processors.values()
        for at in processor.token_arrival_times[seen.get(id(processor), 0):])
    return [later - earlier for earlier, later in zip(arrivals, arrivals[1:])]


class _Fault:
    """Crash ``FAULT_NODE`` a third into the window; recover it and
    re-add its replica (state transfer + special CCS round) at two
    thirds."""

    def __init__(self, bed: Bed, window_s: float,
                 tracer: Optional[Tracer]):
        self.bed = bed
        self.tracer = tracer
        start = bed.sim.now
        self.crash_at = start + window_s / 3
        self.recover_at = start + 2 * window_s / 3
        #: Servant call counts late in the window (the end-of-run check
        #: needs every replica to have served since).
        self.calls_late: Dict[str, int] = {}
        plan = (FaultPlan()
                .crash(FAULT_NODE, at=window_s / 3)
                .recover(FAULT_NODE, at=2 * window_s / 3)
                .call(self._readd, at=2 * window_s / 3)
                .call(self._snapshot, at=0.9 * window_s))
        plan.arm(bed.testbed)

    def _readd(self) -> None:
        self.bed.readd_replica(FAULT_NODE)
        if self.tracer is not None:
            self.tracer.install_protocol(self.bed, FAULT_NODE)

    def _snapshot(self) -> None:
        self.calls_late = {node_id: app.calls
                           for node_id, app in self.bed.apps.items()}

    def measure(self, ledger: Ledger) -> Dict[str, float]:
        """``outage_us``: longest gap between consecutive served replies
        that spans the crash-to-recovery interval.  ``recovery_us``: from
        ``recover`` to the re-added replica's first invocation."""
        replies = sorted(at for at, _latency in ledger.served)
        gaps = [later - earlier
                for earlier, later in zip(replies, replies[1:])
                if later > self.crash_at and earlier < self.recover_at]
        first = self.bed.apps[FAULT_NODE].first_call_at
        return {
            "outage_us": max(gaps, default=0.0) * 1e6,
            "recovery_us": ((first - self.recover_at) * 1e6
                            if first is not None else 0.0),
        }


def _check_invariants(bed: Bed, trial: Trial,
                      fault: Optional[_Fault]) -> None:
    workload, counters = bed.workload, trial.counters
    violations = trial.violations
    if workload.clients == 1 and not workload.fast_path:
        # One caller and no fast path: every op is exactly one round.
        transmitted = counters["core.ccs_sent"] - counters["core.ccs_suppressed"]
        per_op = transmitted / max(counters["window.served"], 1)
        if abs(per_op - 1.0) > 0.01:
            violations.append(f"core.ccs_per_op is {per_op:.4f}, not 1.0")
    if fault is None:
        if counters["totem.membership_changes"]:
            violations.append(
                f"{counters['totem.membership_changes']:.0f} membership "
                "changes on a fault-free workload")
    else:
        replicas = bed.testbed.replicas(GROUP)
        for node_id in bed.server_nodes:
            replica = replicas.get(node_id)
            app = bed.apps[node_id]
            if replica is None or not replica.state_transfer.ready:
                violations.append(f"replica on {node_id} not recovered")
            elif app.calls <= fault.calls_late.get(node_id, app.calls):
                violations.append(f"replica on {node_id} not serving")
