"""The gateway answers once, live.  A plain op is answered by the
replica in the gateway's process alone, with nothing ordered for the
reply (the responder rule); an op that asks every replica
(``REQUEST_ALL``), or one whose gateway hosts no replica, is answered by
every replica through the ring, and its first reply is forwarded, the
others kept and sent only to a caller that asks again.

In-process beds over loopback UDP; one gateway, so every count below is
that gateway's.  ``expect_replies=N`` keeps its contract — N distinct
senders, compared by the caller — through the replay path.
"""

import pytest

from repro.net.client import LiveCaller
from repro.replication.envelope import MsgType
from repro.net.daemon import TimeApp
from repro.net.testbed import LiveTestbed
from repro.obs.crossnode import CrossNodeSpanAssembler, trace_event_record

pytestmark = pytest.mark.live


def serving_bed(replicas, seed, nodes=None):
    bed = LiveTestbed(num_nodes=3, seed=seed)
    bed.deploy("timesvc", TimeApp, nodes=nodes or bed.node_ids[:replicas],
               style="active", time_source="cts")
    bed.start()
    return bed, bed.install_gateway("n0")


def ordered_types(bed):
    """Record the message type of everything each node multicasts."""
    sent = []
    for runtime in bed.runtimes.values():
        def mcast(envelope, ordered=runtime.mcast):
            sent.append(envelope.header.msg_type)
            ordered(envelope)
        runtime.mcast = mcast
    return sent


def replies_sent(bed):
    return {node: replica.stats.replies_sent
            for node, replica in bed.replicas("timesvc").items()}


def test_expecting_three_gets_three_senders_from_one_forward():
    bed, gateway = serving_bed(replicas=3, seed=11)
    with bed, LiveCaller(bed.kernel, [bed.node("n0").address],
                         client_id="c3") as caller:
        for calls in range(1, 6):
            outcome = bed.run_process(caller.call(
                "gettimeofday", timeout=3.0, expect_replies=3))
            assert sorted(outcome.results) == ["n0", "n1", "n2"]
            assert outcome.agreed
            # REQUEST_ALL: every replica answered through the ring.
            bed.wait_until(lambda: replies_sent(bed) == dict.fromkeys(
                ["n0", "n1", "n2"], calls), timeout=3.0)
            # The op went round once and was answered once; what else
            # the caller holds it asked for.
            assert gateway.requests_injected == calls
            assert gateway.replies_forwarded == calls
            assert gateway.replies_suppressed == 2 * calls
        assert gateway.replies_replayed >= 3 * 5
        assert gateway.requests_deduplicated == caller.stats.retries >= 5
        assert gateway.replies_divergent == 0


def test_expecting_three_of_a_pair_returns_two_at_slice_end():
    bed, gateway = serving_bed(replicas=2, seed=12)
    # Two servers listed: the first attempt's slice is half the budget.
    servers = [bed.node("n0").address, bed.node("n1").address]
    with bed, LiveCaller(bed.kernel, servers, client_id="c2") as caller:
        outcome = bed.run_process(caller.call(
            "gettimeofday", timeout=1.0, expect_replies=3))
        assert sorted(outcome.results) == ["n0", "n1"]
        assert outcome.agreed and outcome.attempts == 1
        assert 0.45e6 <= outcome.latency_us < 0.9e6
        # Asked again a few times (1 ms, doubling), not every tick.
        assert 1 <= caller.stats.retries <= 12
        assert gateway.requests_injected == 1


def test_expecting_one_sends_one_datagram_and_gets_one():
    bed, gateway = serving_bed(replicas=3, seed=13)
    with bed, LiveCaller(bed.kernel, [bed.node("n0").address],
                         client_id="c1") as caller:
        for _ in range(20):
            outcome = bed.run_process(caller.call("gettimeofday", timeout=3.0))
            assert len(outcome.results) == 1
        bed.run(0.1)
        # The gateway's own replica answered; no other reply exists.
        assert gateway.replies_suppressed == 0
        assert caller.stats.retries == 0
        assert caller.port.frames_sent == 20
        assert caller.port.frames_received == 20
        assert gateway.replies_forwarded == 20
        assert gateway.requests_deduplicated == gateway.replies_replayed == 0


def test_the_gateway_counts_replies_that_differ():
    bed, gateway = serving_bed(replicas=3, seed=14)
    with bed, LiveCaller(bed.kernel, [bed.node("n0").address],
                         client_id="cd") as caller:
        for _ in range(10):
            bed.run_process(caller.call("gettimeofday", timeout=3.0))
        bed.run(0.1)
        # Plain ops have one reply each: nothing to compare.
        assert gateway.replies_suppressed == 0
        for _ in range(10):
            bed.run_process(caller.call("gettimeofday", timeout=3.0,
                                        expect_replies=3))
        bed.wait_until(lambda: gateway.replies_suppressed == 20, timeout=3.0)
        assert gateway.replies_divergent == 0  # one group clock
        # Per-replica physical clocks: the Figure-1 hazard, seen without
        # a datagram leaving for it.
        for _ in range(3):
            outcome = bed.run_process(caller.call(
                "physical", timeout=3.0, expect_replies=3))
            assert not outcome.agreed
        assert gateway.replies_divergent == 6


def test_a_plain_op_is_answered_once_in_process():
    bed, gateway = serving_bed(replicas=3, seed=16)
    sent = ordered_types(bed)
    with bed, LiveCaller(bed.kernel, [bed.node("n0").address],
                         client_id="cp") as caller:
        outcome = bed.run_process(caller.call("gettimeofday", timeout=3.0))
        bed.wait_until(lambda: all(
            replica.stats.requests_processed == 1
            for replica in bed.replicas("timesvc").values()), timeout=3.0)
        bed.run(0.1)
    assert list(outcome.results) == ["n0"]
    assert replies_sent(bed) == {"n0": 1, "n1": 0, "n2": 0}
    assert MsgType.REQUEST in sent and MsgType.REPLY not in sent
    assert gateway.replies_forwarded == 1
    assert gateway.replies_suppressed == 0


def test_a_gateway_without_a_replica_gets_every_ordered_reply():
    # The fallback: the client's only node (n0) is not in the view.
    bed, gateway = serving_bed(replicas=2, seed=17, nodes=["n1", "n2"])
    sent = ordered_types(bed)
    with bed, LiveCaller(bed.kernel, [bed.node("n0").address],
                         client_id="cf") as caller:
        outcome = bed.run_process(caller.call("gettimeofday", timeout=3.0))
        bed.wait_until(lambda: gateway.replies_suppressed == 1, timeout=3.0)
    assert len(outcome.results) == 1
    assert replies_sent(bed) == {"n1": 1, "n2": 1}
    assert sent.count(MsgType.REPLY) == 2
    assert gateway.replies_forwarded == 1


def test_a_timeline_has_one_reply_forward_hop():
    bed, gateway = serving_bed(replicas=3, seed=15)
    with bed, LiveCaller(bed.kernel, [bed.node("n0").address],
                         client_id="ct", obs=bed.obs) as caller:
        with bed.obs.tracer.capture(["op.", "round."]) as events:
            for _ in range(4):
                bed.run_process(caller.call("gettimeofday", timeout=3.0))
            bed.wait_until(lambda: all(
                replica.stats.requests_processed == 4
                for replica in bed.replicas("timesvc").values()), timeout=3.0)
    assembler = CrossNodeSpanAssembler()
    assembler.add_events(trace_event_record(event) for event in events)
    timelines = assembler.assemble()
    assert len(timelines) == 4
    for timeline in timelines:
        assert timeline.complete
        assert timeline.stages().count("reply.forward") == 1
        assert timeline.stages().count("served") == 3  # all three executed
