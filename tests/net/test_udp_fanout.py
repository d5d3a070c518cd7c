"""Who hears a multicast on the live port: every peer but the sender.

A node does not send itself datagrams (``UdpPort.multicast`` skips its
own id), while the address book still lists it, so a singleton ring's
token — a unicast to its own successor — keeps circulating.  The last
test pins the bug the loopback copy caused: a node's *own* message used
to count as progress evidence and disarm retransmission of the token it
had just forwarded.
"""

import select

import pytest

from repro.net.testbed import LiveTestbed
from repro.net.udp import UdpTransport
from repro.totem.messages import RingBeacon, RingId

from support import ClockApp, call_n  # noqa: E402 (tests/ on sys.path via conftest)

pytestmark = pytest.mark.live

BEACON = RingBeacon(RingId(1, "a"), "a")


@pytest.fixture
def three_ports(kernel):
    transport = UdpTransport(kernel.loop)
    inbox = {node_id: [] for node_id in "abc"}
    ports = {node_id: transport.attach(node_id, inbox[node_id].append)
             for node_id in inbox}
    yield transport, ports, inbox
    transport.close()


class TestFanOut:
    def test_one_datagram_per_other_peer(self, kernel, three_ports):
        _transport, ports, inbox = three_ports
        sender = ports["a"]
        sender.multicast(BEACON)
        assert sender.frames_sent == 2
        # Loopback delivery is synchronous: a self-addressed copy would
        # be readable by now.
        assert select.select([sender.sock], [], [], 0.05)[0] == []
        kernel.run(kernel.now + 0.05)
        assert [frame.src for frame in inbox["b"]] == ["a"]
        assert [frame.src for frame in inbox["c"]] == ["a"]
        assert inbox["a"] == []
        assert sender.frames_received == 0

    def test_the_address_book_still_lists_the_sender(self, kernel,
                                                     three_ports):
        transport, ports, inbox = three_ports
        assert set(transport.peers) == {"a", "b", "c"}
        # ... which is what lets a node address itself on purpose.
        ports["a"].unicast("a", BEACON)
        kernel.run(kernel.now + 0.05)
        assert [frame.payload for frame in inbox["a"]] == [BEACON]
        assert ports["a"].frames_sent == 1


def test_one_node_bed_forms_its_ring_and_delivers_its_own_messages():
    with LiveTestbed(num_nodes=1, seed=3) as bed:
        bed.deploy("timesvc", ClockApp, nodes=bed.node_ids,
                   style="active", time_source="cts")
        client = bed.client("n0")
        bed.start(settle=0.2)
        processor = bed.processors["n0"]
        bed.wait_until(lambda: processor.is_operational
                       and processor.members == ("n0",), timeout=8.0)
        values = call_n(bed, client, "timesvc", "get_time", 3)
        assert all(b > a for a, b in zip(values, values[1:]))
        # The only datagrams a singleton sends are tokens to itself.
        port = bed.node("n0").iface
        assert port.frames_received > 0
        assert processor.stats.messages_delivered >= 3


def test_own_multicast_does_not_disarm_token_retransmission():
    """After a visit that multicast a message, the forwarded token stays
    covered by the retransmit timer until a *peer* shows progress."""
    with LiveTestbed(num_nodes=3, seed=5) as bed:
        bed.deploy("timesvc", ClockApp, nodes=bed.node_ids,
                   style="active", time_source="cts")
        client = bed.client("n0")
        bed.start(settle=0.5)
        bed.wait_until(
            lambda: all(len(bed.processors[n].members) == 3
                        for n in bed.node_ids), timeout=8.0)
        node, processor = bed.node("n0"), bed.processors["n0"]
        forward, receive = processor._forward_token, node.receiver
        multicast_seen = processor.stats.messages_multicast
        watching = False
        #: Per watched visit: was the timer still armed when the first
        #: frame from a peer arrived?
        armed_at_peer_frame = []
        own_copies = []

        def forwarding(token):
            nonlocal multicast_seen, watching
            forward(token)
            watching = processor.stats.messages_multicast > multicast_seen
            multicast_seen = processor.stats.messages_multicast

        def receiving(frame):
            nonlocal watching
            if frame.src == "n0":
                own_copies.append(frame)
            elif watching:
                watching = False
                armed_at_peer_frame.append(processor._retransmit.armed)
            receive(frame)

        def retransmissions():
            return sum(bed.processors[n].stats.token_retransmissions
                       for n in bed.node_ids)

        processor._forward_token = forwarding
        node.set_receiver(receiving)
        since_formation = retransmissions()
        call_n(bed, client, "timesvc", "get_time", 5)

        assert own_copies == []
        assert len(armed_at_peer_frame) >= 5
        assert all(armed_at_peer_frame)
        assert retransmissions() == since_formation
