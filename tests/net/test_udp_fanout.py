"""Who hears a multicast on the live port: every peer but the sender.

A node does not send itself datagrams (``UdpPort.multicast`` skips its
own id), while the address book still lists it, so a singleton ring's
token — a unicast to its own successor — keeps circulating.  A token
visit's messages (``multicast_many``) go to each peer as one batch
datagram on the live port, and as one frame per message on the
simulated LAN and through a chaos port; no backend hands the sender a
copy.  The last test pins the bug the loopback copy caused: a node's
*own* message used to count as progress evidence and disarm
retransmission of the token it had just forwarded
(``tests/sim/test_lost_token.py`` is the simulated counterpart).
"""

import random
import select

import pytest

from repro.chaos.transport import ChaosTransport
from repro.net.auth import WireAuthenticator
from repro.net.client import LiveCaller
from repro.net.daemon import TimeApp
from repro.net.testbed import LiveTestbed
from repro.net.udp import MAX_DATAGRAM, UdpTransport
from repro.net.wire import Batch, encode_frame
from repro.replication.envelope import MsgType, make_envelope
from repro.sim.kernel import Simulator
from repro.sim.network import Network
from repro.totem.messages import RegularMessage, RingBeacon, RingId

from support import ClockApp, call_n  # noqa: E402 (tests/ on sys.path via conftest)

pytestmark = pytest.mark.live

BEACON = RingBeacon(RingId(1, "a"), "a")


def ordered(seq, body=None):
    """An ordered APP message from ``a``, as a token visit sends it."""
    return RegularMessage(RingId(1, "a"), seq, "a", make_envelope(
        MsgType.APP, "g", "g", 0, seq, "a", body=body))


def visit(*seqs, body=None):
    messages = [ordered(seq, body) for seq in seqs]
    return messages, [message.wire_size() for message in messages]


def _three_ports(kernel, auth=None):
    transport = UdpTransport(kernel.loop, auth=auth)
    inbox = {node_id: [] for node_id in "abc"}
    ports = {node_id: transport.attach(node_id, inbox[node_id].append)
             for node_id in inbox}
    yield transport, ports, inbox
    transport.close()


@pytest.fixture
def three_ports(kernel):
    yield from _three_ports(kernel)


@pytest.fixture(params=["unsigned", "signed"])
def visit_ports(request, kernel):
    """Three ports, with and without a MAC on every frame."""
    auth = WireAuthenticator(bytes(range(32))) if request.param == "signed" else None
    yield from _three_ports(kernel, auth)


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


class TestOneDatagramPerVisit:
    def test_a_visit_goes_to_each_other_peer_as_one_datagram(self, kernel, visit_ports):
        _transport, ports, inbox = visit_ports
        messages, sizes = visit(1, 2, 3)
        ports["a"].multicast_many(messages, sizes)
        assert ports["a"].frames_sent == 2
        kernel.run(kernel.now + 0.05)
        for peer in "bc":
            assert [frame.payload for frame in inbox[peer]] == messages
            assert ports[peer].frames_received == 1
        assert inbox["a"] == []

    def test_one_payload_goes_as_itself(self, kernel, visit_ports):
        _transport, ports, inbox = visit_ports
        ports["a"].multicast_many([BEACON], [64])
        assert ports["a"].frames_sent == 2
        kernel.run(kernel.now + 0.05)
        for peer in "bc":
            assert [frame.payload for frame in inbox[peer]] == [BEACON]
            assert inbox[peer][0].size_bytes == len(
                encode_frame("a", BEACON, None, ports["a"].auth))

    def test_a_traced_visit_is_one_datagram(self, kernel, visit_ports):
        """Recording on the registry the ports count into changes
        nothing they send (a port holds no tracer at all)."""
        transport, ports, inbox = visit_ports
        messages, sizes = visit(1, 2, 3)
        with transport.metrics.session():
            ports["a"].multicast_many(messages, sizes)
        assert ports["a"].frames_sent == 2
        kernel.run(kernel.now + 0.05)
        for peer in "bc":
            assert [frame.payload for frame in inbox[peer]] == messages
            assert ports[peer].frames_received == 1

    def test_a_traced_call_leaves_no_state_that_unbatches_a_visit(
            self, kernel, three_ports):
        """Tracing an operation end to end (client, gateway, replicas)
        changes nothing a later bed in the process sends."""
        with LiveTestbed(num_nodes=3, seed=7) as bed:
            bed.deploy("timesvc", TimeApp, nodes=bed.node_ids,
                       style="active", time_source="cts")
            bed.start()
            bed.install_gateway("n0")
            with LiveCaller(bed.kernel, [bed.node("n0").address],
                            client_id="traced", obs=bed.obs) as caller, \
                    bed.obs.tracer.capture(["op."]) as events:
                outcome = bed.run_process(
                    caller.call("gettimeofday", timeout=3.0))
        assert {event.fields["trace"] for event in events
                if event.kind != "op.served"} == {outcome.trace_id}
        _transport, ports, inbox = three_ports
        messages, sizes = visit(1, 2)
        ports["a"].multicast_many(messages, sizes)
        assert ports["a"].frames_sent == 2
        kernel.run(kernel.now + 0.05)
        for peer in "bc":
            assert [frame.payload for frame in inbox[peer]] == messages
            assert ports[peer].frames_received == 1

    def test_a_visit_over_the_datagram_cap_goes_as_runs_that_fit(self, kernel,
                                                                 visit_ports):
        """Three ~30 kB messages: the first two share a datagram, the
        third goes alone, and each peer gets all three intact, in order."""
        _transport, ports, inbox = visit_ports
        messages, sizes = visit(1, 2, 3, body="x" * 30_000)
        ports["a"].multicast_many(messages, sizes)
        assert ports["a"].frames_sent == 4
        kernel.run(kernel.now + 0.1)
        for peer in "bc":
            assert [frame.payload for frame in inbox[peer]] == messages
            assert ports[peer].frames_received == 2
            assert max(frame.size_bytes for frame in inbox[peer]) <= MAX_DATAGRAM

    @pytest.mark.parametrize("over", [0, 1], ids=["at-the-cap", "one-byte-over"])
    def test_the_cap_is_on_the_whole_datagram(self, kernel, visit_ports, over):
        """Two messages whose batch frame is exactly MAX_DATAGRAM share a
        datagram; one byte more, and each goes alone."""
        _transport, ports, inbox = visit_ports
        # A fresh authenticator of the same key: the same size, and no
        # nonce spent on the port's own.
        auth = WireAuthenticator(bytes(range(32))) if ports["a"].auth else None
        short = len(encode_frame("a", Batch([ordered(1, ""), ordered(2, "")]), None, auth))
        grow = MAX_DATAGRAM + over - short  # one byte per character
        messages = [ordered(1, "x" * (grow // 2)), ordered(2, "x" * (grow - grow // 2))]
        assert len(encode_frame("a", Batch(messages), None, auth)) == MAX_DATAGRAM + over
        ports["a"].multicast_many(messages, [m.wire_size() for m in messages])
        assert ports["a"].frames_sent == 2 * (1 + over)
        kernel.run(kernel.now + 0.1)
        for peer in "bc":
            assert [frame.payload for frame in inbox[peer]] == messages
            assert max(frame.size_bytes for frame in inbox[peer]) <= MAX_DATAGRAM


@pytest.mark.parametrize("chaos", [False, True], ids=["lan", "chaos"])
def test_the_simulator_sends_a_visit_one_frame_per_message(chaos):
    """The simulated LAN (and a chaos port over it) emits the same frames
    for a visit as for one multicast per message: same arrivals, same
    sizes, same random draws."""
    messages, sizes = visit(1, 2, 3)

    def run(send):
        sim = Simulator()
        network = Network(sim, random.Random(11), loss_rate=0.2)
        transport = network
        if chaos:
            transport = ChaosTransport(network, sim, seed=3)
            transport.set_delay(0.001, jitter_s=0.002)
            transport.set_duplicate(0.3)
        seen = []
        ports = {node_id: transport.attach(node_id, lambda frame, node_id=node_id: seen.append(
            (sim.now, node_id, frame.src, frame.payload, frame.size_bytes)))
            for node_id in "abc"}
        send(ports["a"])
        sim.run()
        return seen, ports["a"].frames_sent, ports["a"].bytes_sent

    def one_by_one(port):
        for message, size in zip(messages, sizes):
            port.multicast(message, size)

    batched = run(lambda port: port.multicast_many(messages, sizes))
    assert batched == run(one_by_one)
    # One frame per message (per other peer through the chaos port,
    # duplicates on top); nobody hears its own multicast.
    assert batched[1] >= 3 * (2 if chaos else 1)
    assert all(node_id != src for _t, node_id, src, _p, _s in batched[0])


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
