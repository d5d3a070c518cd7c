"""Tests for Totem regular operation: ring formation, total order,
reliability under loss, flow control and statistics."""

import pytest

from repro.totem import TotemConfig

from .helpers import TotemHarness


class TestRingFormation:
    def test_all_processors_become_operational(self):
        harness = TotemHarness(4)
        harness.run_until_operational()
        rings = {p.ring.ring_id for p in harness.processors.values()}
        assert len(rings) == 1
        for proc in harness.processors.values():
            assert proc.members == ("n0", "n1", "n2", "n3")

    def test_initial_config_change_delivered(self):
        harness = TotemHarness(4)
        harness.run_until_operational()
        for recorder in harness.recorders.values():
            assert len(recorder.configs) >= 1
            first = recorder.configs[0]
            assert set(first.joined) == {"n0", "n1", "n2", "n3"}
            assert first.departed == ()
            assert first.is_primary

    def test_singleton_ring_forms(self):
        harness = TotemHarness(1)
        harness.run_until_operational()
        proc = harness.processors["n0"]
        assert proc.members == ("n0",)
        assert harness.recorders["n0"].configs[0].is_primary

    def test_two_node_ring(self):
        harness = TotemHarness(2)
        harness.run_until_operational()
        for proc in harness.processors.values():
            assert proc.members == ("n0", "n1")


class TestTotalOrder:
    def test_single_sender_fifo(self):
        harness = TotemHarness(4)
        harness.run_until_operational()
        for i in range(20):
            harness.processors["n1"].mcast(f"m{i}")
        harness.run(0.05)
        expected = [f"m{i}" for i in range(20)]
        for recorder in harness.recorders.values():
            assert recorder.payloads == expected

    def test_concurrent_senders_same_order_everywhere(self):
        harness = TotemHarness(4)
        harness.run_until_operational()
        for i in range(10):
            for nid in harness.processors:
                harness.processors[nid].mcast(f"{nid}:{i}")
        harness.run(0.1)
        orders = [tuple(r.payloads) for r in harness.recorders.values()]
        assert len(orders[0]) == 40
        assert all(order == orders[0] for order in orders)

    def test_sender_receives_own_messages(self):
        harness = TotemHarness(3)
        harness.run_until_operational()
        harness.processors["n0"].mcast("self-delivery")
        harness.run(0.05)
        assert "self-delivery" in harness.recorders["n0"].payloads

    def test_sequence_numbers_are_contiguous(self):
        harness = TotemHarness(4)
        harness.run_until_operational()
        for i in range(15):
            harness.processors[f"n{i % 4}"].mcast(i)
        harness.run(0.1)
        for recorder in harness.recorders.values():
            seqs = [seq for seq, _, _ in recorder.delivered]
            assert seqs == list(range(1, 16))

    def test_burst_beyond_window_is_delivered(self):
        config = TotemConfig(window_size=4)
        harness = TotemHarness(3, totem_config=config)
        harness.run_until_operational()
        for i in range(50):
            harness.processors["n0"].mcast(i)
        harness.run(0.2)
        for recorder in harness.recorders.values():
            assert recorder.payloads == list(range(50))

    def test_mcast_before_operational_is_queued(self):
        harness = TotemHarness(3)
        harness.processors["n0"].mcast("early")
        harness.run_until_operational()
        harness.run(0.05)
        for recorder in harness.recorders.values():
            assert recorder.payloads == ["early"]


class TestReliability:
    def test_all_delivered_under_message_loss(self):
        harness = TotemHarness(4, loss_rate=0.03, seed=7)
        harness.run_until_operational(timeout=2.0)
        for i in range(30):
            harness.processors[f"n{i % 4}"].mcast(i)
        harness.run(0.5)
        orders = [tuple(r.payloads) for r in harness.recorders.values()]
        assert sorted(orders[0]) == list(range(30))
        assert all(order == orders[0] for order in orders)

    def test_retransmissions_occur_under_loss(self):
        harness = TotemHarness(4, loss_rate=0.05, seed=3)
        harness.run_until_operational(timeout=2.0)
        for i in range(50):
            harness.processors["n0"].mcast(i)
        harness.run(0.5)
        total_retrans = sum(
            p.stats.retransmissions for p in harness.processors.values()
        )
        assert total_retrans > 0

    def test_no_duplicate_deliveries_under_loss(self):
        harness = TotemHarness(4, loss_rate=0.05, seed=11)
        harness.run_until_operational(timeout=2.0)
        for i in range(30):
            harness.processors["n1"].mcast(i)
        harness.run(0.5)
        for recorder in harness.recorders.values():
            assert len(recorder.payloads) == len(set(recorder.payloads))


class TestCancelPending:
    def test_cancel_removes_queued_payload(self):
        harness = TotemHarness(3, start=False)
        proc = harness.processors["n0"]
        proc.mcast("keep")
        proc.mcast("drop")
        cancelled = proc.cancel_pending(lambda p: p == "drop")
        assert cancelled == 1
        assert proc.stats.sends_cancelled == 1
        for p in harness.processors.values():
            p.start()
        harness.run_until_operational()
        harness.run(0.05)
        for recorder in harness.recorders.values():
            assert recorder.payloads == ["keep"]

    def test_cancel_does_not_affect_transmitted(self):
        harness = TotemHarness(3)
        harness.run_until_operational()
        harness.processors["n0"].mcast("sent")
        harness.run(0.05)  # transmitted and delivered
        assert harness.processors["n0"].cancel_pending(lambda p: True) == 0
        assert "sent" in harness.recorders["n1"].payloads


class TestLatencyShape:
    def test_mcast_latency_is_about_one_rotation(self):
        """An mcast waits for the token (≤1 rotation) and then one
        multicast hop: total should be on the order of 100s of us."""
        harness = TotemHarness(4)
        harness.run_until_operational()
        sim = harness.sim
        deliveries = []
        harness.processors["n2"].on_deliver = lambda msg: deliveries.append(sim.now)
        start = sim.now
        harness.processors["n1"].mcast("timed")
        harness.run(0.05)
        latency = deliveries[0] - start
        assert 20e-6 < latency < 1.5e-3

    def test_token_keeps_rotating_when_idle(self):
        harness = TotemHarness(4)
        harness.run_until_operational()
        before = harness.processors["n0"].stats.tokens_forwarded
        harness.run(0.01)
        after = harness.processors["n0"].stats.tokens_forwarded
        assert after > before


class TestStats:
    def test_message_counters(self):
        harness = TotemHarness(3)
        harness.run_until_operational()
        harness.processors["n0"].mcast("a")
        harness.processors["n0"].mcast("b")
        harness.run(0.05)
        assert harness.processors["n0"].stats.messages_multicast == 2
        for p in harness.processors.values():
            assert p.stats.messages_delivered >= 2


class TestOneHandOffPerVisit:
    def test_a_visit_hands_its_messages_to_the_port_at_once_ahead_of_the_token(self):
        """The port may pack a visit (the live one sends one datagram per
        peer), so the visit's messages reach it in one call, in sequence
        order, before the token is forwarded."""
        harness = TotemHarness(3)
        harness.run_until_operational()
        iface = harness.cluster.node("n1").iface
        calls = []
        many, unicast = iface.multicast_many, iface.unicast

        def multicast_many(payloads, sizes):
            calls.append([message.seq for message in payloads])
            many(payloads, sizes)

        def forward(dst, token, size_bytes=128):
            calls.append(getattr(token, "seq", 0))  # a commit token has none
            unicast(dst, token, size_bytes)

        iface.multicast_many, iface.unicast = multicast_many, forward
        for name in ("a", "b", "c"):
            harness.processors["n1"].mcast(name)
        harness.run(0.05)
        at, visit = next((i, call) for i, call in enumerate(calls) if isinstance(call, list))
        assert visit == list(range(visit[0], visit[0] + 3))
        # The token that carries the visit's last sequence number follows it.
        assert calls[at + 1] == visit[-1]
        assert all(seq < visit[0] for seq in calls[:at])
        for recorder in harness.recorders.values():
            assert recorder.payloads == ["a", "b", "c"]
