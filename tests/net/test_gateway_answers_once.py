"""The gateway answers once, live: an op's first reply is forwarded, the
other replicas' are kept and sent only to a caller that asks again.

In-process beds over loopback UDP; one gateway, so every count below is
that gateway's.  ``expect_replies=N`` keeps its contract — N distinct
senders, compared by the caller — through the replay path.
"""

import pytest

from repro import trace
from repro.net.client import LiveCaller
from repro.net.daemon import TimeApp
from repro.net.testbed import LiveTestbed
from repro.obs.crossnode import CrossNodeSpanAssembler, trace_event_record

pytestmark = pytest.mark.live


def serving_bed(replicas, seed):
    bed = LiveTestbed(num_nodes=3, seed=seed)
    bed.deploy("timesvc", TimeApp, nodes=bed.node_ids[:replicas],
               style="active", time_source="cts")
    bed.start()
    return bed, bed.install_gateway("n0")


def test_expecting_three_gets_three_senders_from_one_forward():
    bed, gateway = serving_bed(replicas=3, seed=11)
    with bed, LiveCaller(bed.kernel, [bed.node("n0").address],
                         client_id="c3") as caller:
        for calls in range(1, 6):
            outcome = bed.run_process(caller.call(
                "gettimeofday", timeout=3.0, expect_replies=3))
            assert sorted(outcome.results) == ["n0", "n1", "n2"]
            assert outcome.agreed
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
        bed.wait_until(lambda: gateway.replies_suppressed == 40, timeout=3.0)
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
        bed.wait_until(lambda: gateway.replies_suppressed == 20, timeout=3.0)
        assert gateway.replies_divergent == 0  # one group clock
        # Per-replica physical clocks: the Figure-1 hazard, seen without
        # a datagram leaving for it.
        for _ in range(3):
            outcome = bed.run_process(caller.call(
                "physical", timeout=3.0, expect_replies=3))
            assert not outcome.agreed
        assert gateway.replies_divergent == 6


def test_a_timeline_has_one_reply_forward_hop():
    bed, gateway = serving_bed(replicas=3, seed=15)
    with bed, LiveCaller(bed.kernel, [bed.node("n0").address],
                         client_id="ct") as caller:
        with trace.TRACER.capture(["op.", "round."]) as events:
            for _ in range(4):
                bed.run_process(caller.call("gettimeofday", timeout=3.0))
            bed.wait_until(lambda: gateway.replies_suppressed == 8,
                           timeout=3.0)
        trace.BAGGAGE.clear()
    assembler = CrossNodeSpanAssembler()
    assembler.add_events(trace_event_record(event) for event in events)
    timelines = assembler.assemble()
    assert len(timelines) == 4
    for timeline in timelines:
        assert timeline.complete
        assert timeline.stages().count("reply.forward") == 1
        assert timeline.stages().count("served") == 3  # all three executed
