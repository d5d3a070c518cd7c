"""Open-loop overload generation against admission-controlled gateways.

The closed-loop generator (:mod:`repro.workloads.loadgen`) cannot
overload the service: its in-flight population is pinned at the worker
count, so when the service slows down the offered rate falls with it.
Real client populations do not behave that way — arrivals keep coming
whether or not earlier requests completed.  This module drives that
regime: a Poisson arrival process at a configured rate, client
identities drawn zipf-skewed from a fixed population (a few hot
identities, a long cool tail), fired at live admission-controlled
gateways over real UDP.

What it measures is the shed-before-collapse contract:

* **goodput** — served replies per second — should track offered load
  up to capacity and *hold near capacity* beyond it;
* beyond capacity the gateway answers the excess with typed
  ``Overloaded`` + retry-after (**shed rate** rises with overload);
* the latency of *served* requests stays bounded (the admission queue
  is short by construction), instead of growing with the backlog.

:func:`run_overload_suite` packages the acceptance measurement: a
closed-loop capacity calibration, an unloaded latency baseline, then
open-loop runs at 1x/2x/4x the calibrated capacity — a JSON-able run
for :func:`repro.workloads.load.append_run`.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..control.admission import AdmissionConfig, is_overloaded, retry_after_of
from ..net.client import LiveCaller, ThreadedCallers
from ..replication.envelope import MsgType, make_envelope
from ..rpc.messages import Invocation
from .load import LoadResult, ZipfPicker

GROUP = "timesvc"


@dataclass
class _PendingOp:
    identity: int
    sent_at: float
    deadline: float


class OpenLoopInjector:
    """One UDP socket hosting a whole zipf-skewed client population.

    Every identity gets its own client group (so the gateway's
    per-client fairness and dedup windows see distinct clients) but all
    replies return to this one socket; ``conn_id`` encodes the identity,
    the per-identity sequence number completes the operation id.
    Arrivals are fired on a Poisson schedule regardless of outstanding
    requests — the defining property of open-loop load.

    A sender thread and a receiver thread share only the pending-op
    table (under its lock); each keeps its own tallies, which
    :meth:`run` adds up once both have finished.
    """

    def __init__(self, servers: Sequence, *, identities: int,
                 zipf_s: float, rng, group: str = GROUP,
                 deadline_s: float = 0.5,
                 method: str = "gettimeofday",
                 bind_host: str = "127.0.0.1"):
        self.servers = list(servers)
        self.identities = identities
        self.zipf_s = zipf_s
        self.group = group
        self.deadline_s = deadline_s
        self.method = method
        self.rng = rng
        self.picker = ZipfPicker(identities, zipf_s, rng)
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((bind_host, 0))
        self._seqs = [0] * identities
        #: (conn_id, seq) -> _PendingOp, insertion-ordered by send time
        #: (deadlines are monotone in it, so expiry pops from the front).
        self._pending: "OrderedDict[tuple, _PendingOp]" = OrderedDict()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        #: Sender thread's tallies.
        self._sent = self._send_errors = 0
        #: Receiver thread's tallies; served calls land in the result.
        self._result: Optional[LoadResult] = None
        self._shed_hints_s: list = []
        self._timeouts = 0

    # -- sending -------------------------------------------------------

    def _send_one(self, now: float) -> None:
        identity = self.picker.pick()
        self._seqs[identity] += 1
        seq = self._seqs[identity]
        conn_id = identity + 1
        envelope = make_envelope(
            MsgType.REQUEST,
            f"client.ol{identity}",
            self.group,
            conn_id,
            seq,
            f"ol{identity}",
            body=Invocation(self.method, (None,)),
        )
        from ..net.wire import encode_frame

        data = encode_frame(f"ol{identity}", envelope)
        # Identities are sticky to a gateway: dedup and fair-queue state
        # for one client lives on one node.
        address = self.servers[identity % len(self.servers)]
        with self._lock:
            self._pending[(conn_id, seq)] = _PendingOp(
                identity, now, now + self.deadline_s)
        try:
            self.sock.sendto(data, address)
        except OSError:
            with self._lock:
                self._pending.pop((conn_id, seq), None)
            self._send_errors += 1
            return
        self._sent += 1

    def _sender(self, rate_ops_s: float, duration_s: float) -> None:
        start = time.monotonic()
        deadline = start + duration_s
        next_at = start
        while True:
            next_at += self.rng.expovariate(rate_ops_s)
            if next_at >= deadline:
                break
            pause = next_at - time.monotonic()
            if pause > 0:
                time.sleep(pause)
            self._send_one(time.monotonic())

    # -- receiving -----------------------------------------------------

    def _expire(self, now: float) -> None:
        with self._lock:
            while self._pending:
                key = next(iter(self._pending))
                if self._pending[key].deadline > now:
                    break
                del self._pending[key]
                self._timeouts += 1

    def _receiver(self) -> None:
        from ..net.wire import FrameError, decode_frame

        result = self._result
        self.sock.settimeout(0.05)
        while not (self._stop.is_set() and not self._pending):
            self._expire(time.monotonic())
            try:
                data, _addr = self.sock.recvfrom(65536)
            except socket.timeout:
                continue
            except OSError:
                break
            received = time.monotonic()
            try:
                _src, envelope = decode_frame(data)
            except FrameError:
                continue
            header = envelope.header
            if header.msg_type is not MsgType.REPLY:
                continue
            key = (header.conn_id, header.msg_seq_num)
            with self._lock:
                op = self._pending.pop(key, None)
            if op is None:
                continue  # duplicate replica reply or late straggler
            reply = envelope.body
            if is_overloaded(reply):
                self._shed_hints_s.append(retry_after_of(reply))
            elif getattr(reply, "ok", False):
                result.completed += 1
                result.latencies_us.append(
                    int((received - op.sent_at) * 1_000_000))
            else:
                result.errors += 1

    # -- driver --------------------------------------------------------

    def run(self, bed, *, rate_ops_s: float, duration_s: float,
            drain_s: float = 1.0) -> LoadResult:
        """Fire Poisson arrivals for ``duration_s`` while pumping the
        testbed's event loop from this thread.  ``completed`` counts the
        served calls (``ops_per_s`` is the goodput); shed, timed-out and
        sent tallies are in ``extra``."""
        result = self._result = LoadResult(
            mode="open-loop", duration_s=duration_s)
        sender = threading.Thread(
            target=self._sender, args=(rate_ops_s, duration_s),
            name="openloop-sender", daemon=True)
        receiver = threading.Thread(
            target=self._receiver, name="openloop-receiver", daemon=True)
        receiver.start()
        sender.start()
        bed.pump(duration_s)
        sender.join(timeout=5.0)
        # Drain stragglers: replies already in flight when the window
        # closed still count (their ops were offered inside it).
        bed.pump(drain_s, until=lambda: not self._pending)
        self._stop.set()
        receiver.join(timeout=5.0)
        result.errors += self._send_errors
        hints = self._shed_hints_s
        result.extra.update(
            offered_rate_ops_s=round(rate_ops_s, 1),
            identities=self.identities, zipf_s=self.zipf_s,
            sent=self._sent, served=result.completed, shed=len(hints),
            timeouts=self._timeouts,
            goodput_ops_s=round(result.ops_per_s, 1),
            shed_rate=round(len(hints) / self._sent if self._sent else 0.0,
                            4),
            mean_retry_after_s=round(
                sum(hints) / len(hints) if hints else 0.0, 4),
        )
        return result

    def close(self) -> None:
        self._stop.set()
        self.sock.close()


def calibrate_capacity(bed, servers, *, threads: int = 8,
                       duration_s: float = 1.5) -> float:
    """Measured closed-loop capacity, ops/s: ``threads`` callers, each
    one-in-flight, against the same gateways the open-loop run will hit.
    This is the 1x anchor for the overload factors."""
    # Rotate the server list per caller: a caller prefers the head of
    # its list, so without rotation every one would pile onto one
    # gateway and calibrate that gateway, not the cluster.
    servers = list(servers)
    rotations = [servers[pivot:] + servers[:pivot]
                 for pivot in range(len(servers))]
    callers = ThreadedCallers([
        LiveCaller(rotations[index % len(servers)], client_id=f"cal{index}")
        for index in range(threads)])
    callers.start()
    bed.pump(duration_s)
    callers.stop()
    callers.join()
    return callers.report()["served"] / duration_s


#: The admission knobs the overload suite runs under: a short pipeline
#: and a 20 ms queue-delay budget, so overload is shed, not queued.
OVERLOAD_ADMISSION = AdmissionConfig(
    max_inflight=4, max_global_queue=32, max_client_queue=4,
    max_queue_delay_s=0.02)


def run_overload_suite(
    *,
    seed: int = 0,
    num_nodes: int = 3,
    duration_s: float = 2.0,
    identities: int = 64,
    zipf_s: float = 1.1,
    factors: Sequence[float] = (1.0, 2.0, 4.0),
    baseline_fraction: float = 0.25,
    deadline_s: float = 0.5,
    calibration_s: float = 1.5,
    admission_config: AdmissionConfig = OVERLOAD_ADMISSION,
    fast_path: bool = True,
    max_staleness_us: int = 2_000,
) -> Dict:
    """The overload acceptance measurement, end to end.

    Boots a live cluster with admission-controlled gateways, calibrates
    closed-loop capacity, records an unloaded open-loop baseline
    (``baseline_fraction`` of capacity), then drives each overload
    factor.  Returns a JSON-able run for
    :func:`~repro.workloads.load.append_run`.
    """
    import random

    from ..net.daemon import TimeApp
    from ..net.testbed import LiveTestbed

    node_ids = [f"n{i}" for i in range(num_nodes)]
    bed = LiveTestbed(node_ids=node_ids, seed=seed)
    try:
        bed.deploy(GROUP, TimeApp, nodes=node_ids,
                   style="active", time_source="cts",
                   fast_path=fast_path, max_staleness_us=max_staleness_us)
        bed.start()
        for node_id in node_ids:
            bed.install_gateway(node_id, admission_config)
        servers = [bed.node(node_id).address for node_id in node_ids]

        capacity = calibrate_capacity(bed, servers,
                                      duration_s=calibration_s)
        rng = random.Random(seed ^ 0x09E2)

        def one_run(rate: float, run_s: float = duration_s) -> LoadResult:
            injector = OpenLoopInjector(
                servers, identities=identities, zipf_s=zipf_s, rng=rng,
                deadline_s=deadline_s)
            try:
                return injector.run(bed, rate_ops_s=rate, duration_s=run_s)
            finally:
                injector.close()

        # The baseline p99 anchors the acceptance ratio, and at a
        # fraction of capacity the sample count is small — run it twice
        # as long so its tail estimate is not dominated by a handful of
        # scheduler hiccups.
        baseline = one_run(max(10.0, baseline_fraction * capacity),
                           run_s=duration_s * 2)
        points = {f"{factor:g}x": one_run(factor * capacity)
                  for factor in factors}

        suite: Dict = {
            "kind": "open-loop-overload",
            "seed": seed,
            "nodes": num_nodes,
            "capacity_ops_s": round(capacity, 1),
            "admission": {
                "max_inflight": admission_config.max_inflight,
                "max_global_queue": admission_config.max_global_queue,
                "max_client_queue": admission_config.max_client_queue,
                "max_queue_delay_s": admission_config.max_queue_delay_s,
            },
            "baseline": baseline.to_dict(),
            "points": {label: r.to_dict()
                       for label, r in points.items()},
            "admission_stats": [g.admission.stats.to_dict()
                                for g in bed.gateways],
        }
        worst = points.get(f"{max(factors):g}x")
        if worst is not None and baseline.p99_us:
            # vs the unloaded anchor: includes the latency cost of
            # *keeping the pipeline loaded* at all (queues are empty at
            # baseline_fraction of capacity by construction).
            suite["p99_ratio_vs_baseline"] = round(
                worst.p99_us / baseline.p99_us, 2)
        saturated = points.get(f"{min(factors):g}x")
        if (worst is not None and saturated is not None
                and saturated is not worst and saturated.p99_us):
            # vs the highest non-overloaded operating point: the
            # no-collapse bound — overload beyond saturation must not
            # stretch the served tail, only raise the shed rate.
            suite["p99_ratio_vs_saturation"] = round(
                worst.p99_us / saturated.p99_us, 2)
        return suite
    finally:
        bed.shutdown()
