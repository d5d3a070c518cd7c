"""Unit tests for the simulated LAN."""

import random

import pytest

from repro.errors import NetworkError
from repro.sim import LatencyModel, Network, Simulator


@pytest.fixture
def sim():
    return Simulator()


def make_network(sim, **kwargs):
    return Network(sim, random.Random(1234), **kwargs)


class Sink:
    """Records delivered frames with their arrival times."""

    def __init__(self, sim):
        self.sim = sim
        self.frames = []

    def __call__(self, frame):
        self.frames.append((self.sim.now, frame))


class TestLatencyModel:
    def test_fixed_components(self):
        model = LatencyModel(bandwidth_bps=100e6, propagation_s=20e-6, jitter_mean_s=0.0)
        latency = model.sample(random.Random(0), 1250)  # 1250 B = 100 us at 100 Mbit
        assert latency == pytest.approx(120e-6)

    def test_jitter_is_nonnegative(self):
        model = LatencyModel(jitter_mean_s=10e-6)
        rng = random.Random(7)
        base = LatencyModel(jitter_mean_s=0.0).sample(rng, 100)
        for _ in range(100):
            assert model.sample(rng, 100) >= base


class TestUnicast:
    def test_delivery(self, sim):
        net = make_network(sim)
        a = net.attach("a", Sink(sim))
        sink_b = Sink(sim)
        net.attach("b", sink_b)
        a.unicast("b", "hello", size_bytes=64)
        sim.run()
        assert len(sink_b.frames) == 1
        arrival, frame = sink_b.frames[0]
        assert frame.payload == "hello"
        assert frame.src == "a"
        assert arrival > 0.0

    def test_unknown_destination_is_dropped(self, sim):
        net = make_network(sim)
        a = net.attach("a", Sink(sim))
        a.unicast("ghost", "x")
        sim.run()  # no exception, nothing delivered

    def test_stats_counted(self, sim):
        net = make_network(sim)
        sink = Sink(sim)
        a = net.attach("a", Sink(sim))
        b = net.attach("b", sink)
        a.unicast("b", "x", size_bytes=100)
        sim.run()
        assert a.frames_sent == 1
        assert a.bytes_sent == 100
        assert b.frames_received == 1

    def test_unicast_to_oneself_is_fast(self, sim):
        """A singleton ring's token goes to its own successor: a local
        delivery, at most a tenth of the propagation delay."""
        net = make_network(sim)
        sink_a, sink_b = Sink(sim), Sink(sim)
        a = net.attach("a", sink_a)
        net.attach("b", sink_b)
        a.unicast("a", "token")
        a.unicast("b", "token")
        sim.run()
        assert len(sink_a.frames) == 1
        assert sink_a.frames[0][0] <= net.latency.propagation_s * 0.1
        assert sink_a.frames[0][0] < sink_b.frames[0][0]


class TestMulticast:
    def test_reaches_everyone_but_the_sender(self, sim):
        net = make_network(sim)
        sinks = {nid: Sink(sim) for nid in "abc"}
        ifaces = {nid: net.attach(nid, sinks[nid]) for nid in "abc"}
        ifaces["a"].multicast("announce")
        sim.run()
        assert sinks["a"].frames == []
        for nid in "bc":
            assert len(sinks[nid].frames) == 1, nid
        assert ifaces["a"].frames_sent == 1
        assert ifaces["a"].frames_received == 0

    def test_the_senders_leg_still_draws(self, sim):
        """Each multicast draws loss, then jitter, for every destination
        in attachment order, the sender's leg first here: the seeded
        stream every simulated figure rests on.  The sender's leg is
        drawn and dropped; it is not counted as a lost frame."""
        seed, loss_rate, size = 99, 0.3, 200
        net = Network(sim, random.Random(seed), loss_rate=loss_rate)
        sinks = {nid: Sink(sim) for nid in "abc"}
        ifaces = {nid: net.attach(nid, sinks[nid]) for nid in "abc"}
        sends = [i * 1e-3 for i in range(40)]  # spaced: no FIFO clamping
        for at in sends:
            sim.schedule(at, ifaces["a"].multicast, "m", size)
        sim.run()

        rng = random.Random(seed)
        expected = {nid: [] for nid in "abc"}
        lost = 0
        for at in sends:
            for nid in "abc":
                if rng.random() < loss_rate:
                    lost += nid != "a"
                    continue
                expected[nid].append(at + net.latency.sample(rng, size))
        assert expected["a"], "the sender's leg must have drawn a delay"
        assert sinks["a"].frames == []
        for nid in "bc":
            assert [t for t, _ in sinks[nid].frames] == expected[nid], nid
        assert net.frames_dropped == lost


class TestFaults:
    def test_loss_drops_frames(self, sim):
        net = make_network(sim, loss_rate=0.5)
        sink = Sink(sim)
        a = net.attach("a", Sink(sim))
        net.attach("b", sink)
        for _ in range(200):
            a.unicast("b", "x")
        sim.run()
        assert 0 < len(sink.frames) < 200
        assert net.frames_dropped == 200 - len(sink.frames)

    def test_invalid_loss_rate_rejected(self, sim):
        with pytest.raises(NetworkError):
            make_network(sim, loss_rate=1.0)

    def test_partition_blocks_cross_traffic(self, sim):
        net = make_network(sim)
        sinks = {nid: Sink(sim) for nid in "abcd"}
        ifaces = {nid: net.attach(nid, sinks[nid]) for nid in "abcd"}
        net.partition({"a", "b"}, {"c", "d"})
        ifaces["a"].multicast("m")
        sim.run()
        assert len(sinks["b"].frames) == 1
        assert len(sinks["c"].frames) == 0
        assert len(sinks["d"].frames) == 0

    def test_heal_restores_traffic(self, sim):
        net = make_network(sim)
        sinks = {nid: Sink(sim) for nid in "ab"}
        ifaces = {nid: net.attach(nid, sinks[nid]) for nid in "ab"}
        net.partition({"a"}, {"b"})
        assert not net.reachable("a", "b")
        net.heal()
        assert net.reachable("a", "b")
        ifaces["a"].unicast("b", "x")
        sim.run()
        assert len(sinks["b"].frames) == 1

    def test_down_interface_does_not_receive(self, sim):
        net = make_network(sim)
        sink = Sink(sim)
        a = net.attach("a", Sink(sim))
        b = net.attach("b", sink)
        b.up = False
        a.unicast("b", "x")
        sim.run()
        assert sink.frames == []

    def test_down_interface_cannot_send(self, sim):
        net = make_network(sim)
        a = net.attach("a", Sink(sim))
        a.up = False
        with pytest.raises(NetworkError):
            a.unicast("a", "x")

    def test_double_attach_rejected(self, sim):
        net = make_network(sim)
        net.attach("a", Sink(sim))
        with pytest.raises(NetworkError):
            net.attach("a", Sink(sim))


class TestDeterminism:
    def test_same_seed_same_arrivals(self):
        def run(seed):
            sim = Simulator()
            net = Network(sim, random.Random(seed))
            sink = Sink(sim)
            a = net.attach("a", Sink(sim))
            net.attach("b", sink)
            for _ in range(50):
                a.unicast("b", "x")
            sim.run()
            return [t for t, _ in sink.frames]

        assert run(1) == run(1)
        assert run(1) != run(2)
