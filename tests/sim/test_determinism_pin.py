"""Pins on the simulated cost model: what two seeded runs deliver, answer
and end at, and how deep the event heap gets.

The simulated figures (ops/s, latencies, outage and recovery times) are
a function of the seed and of the order in which the kernel fires
events.  A change that only makes the simulator faster must leave both
digests below untouched.  The closed-loop digest was recorded at the
commit before the kernel's callback lane and the one-deadline Totem
timers went in.  The failover digest was re-recorded when the simulated
LAN stopped handing a sender its own multicast, so that a token lost in
its 0.2 % loss is retransmitted instead of re-formed around.
"""

import hashlib

from repro import Testbed
from repro.errors import RpcTimeout
from repro.sim import ClusterConfig
from repro.sim.faults import FaultPlan
from repro.workloads.load import closed_loop, open_loop

from support import ClockApp  # noqa: E402  (tests/ is on sys.path)

GROUP, METHOD = "svc", "get_time"

CLOSED_LOOP_DIGEST = (
    "9c214096c14451792c141d4a246af0e8b70c01a15048ccb8121573c54a91e3fb")
FAILOVER_DIGEST = (
    "10d81e2ca89c7c040b19c0c15e3091543159df1b41fa08efee80c4e14a6d6b00")


class _Recorder:
    """What the digest covers: every message each node delivers, in
    order, and every reply a client sees, in order."""

    def __init__(self, bed):
        self.bed = bed
        self.delivered = []
        self.replies = []
        for node_id in bed.node_ids:
            self.tap(node_id)

    def tap(self, node_id):
        processor = self.bed.processors[node_id]
        deliver = processor.on_deliver

        def record(msg):
            self.delivered.append(
                (node_id, msg.ring_id.seq, msg.ring_id.representative,
                 msg.seq, msg.sender))
            deliver(msg)

        processor.on_deliver = record

    def digest(self):
        text = repr((self.delivered, self.replies, self.bed.sim.now))
        return hashlib.sha256(text.encode()).hexdigest()


def _bed(seed, loss_rate=0.0, **deploy_options):
    bed = Testbed(seed=seed, cluster_config=ClusterConfig(
        num_nodes=4, loss_rate=loss_rate))
    bed.deploy(GROUP, ClockApp, ["n1", "n2", "n3"], **deploy_options)
    client = bed.client("n0")
    bed.start()
    return bed, client, _Recorder(bed)


def test_closed_loop_run_is_pinned_and_the_heap_stays_shallow():
    bed, client, recorder = _bed(0, coalesce=True, fast_path=True)

    def call(index):
        reply, latency_us = yield from client.timed_call(
            GROUP, METHOD, timeout=None)
        recorder.replies.append((index, reply.value, latency_us))
        return latency_us if reply.ok else None

    result = closed_loop(bed, call, workers=16, duration_s=0.03, drain_s=0.0)
    # Still under full load here.  What is queued must be what can still
    # fire — a handful of timers per node and the frames in flight — not
    # one entry per token or message seen in the last timeout period
    # (about 3 300 before timers became single deadlines).
    assert len(bed.sim._heap) < 256
    bed.run(0.01)
    assert result.errors == 0 and result.completed > 1_000
    assert recorder.digest() == CLOSED_LOOP_DIGEST


def test_open_loop_run_through_loss_crash_and_recovery_is_pinned():
    bed, client, recorder = _bed(1, loss_rate=0.002)
    duration_s = 0.3

    def readd():
        recorder.tap("n3")
        bed.add_replica(GROUP, "n3")

    (FaultPlan()
     .crash("n3", at=duration_s / 3)
     .recover("n3", at=2 * duration_s / 3)
     .call(readd, at=2 * duration_s / 3)
     .arm(bed))

    def op(done):
        try:
            reply = yield client.call(GROUP, METHOD, timeout=0.25)
        except RpcTimeout:
            recorder.replies.append(("timeout", bed.sim.now))
            done(None)
        else:
            recorder.replies.append((reply.value, bed.sim.now))
            done(0)

    result = open_loop(bed, lambda done: bed.sim.process(op(done)),
                       rate=4000.0, duration_s=duration_s, drain_s=0.3)
    assert result.completed + result.errors == result.extra["issued"] >= 1200
    assert len(bed.replicas(GROUP)) == 3
    assert recorder.digest() == FAILOVER_DIGEST
