"""Hostile datagrams against a live UDP port.

A bound port is exposed to arbitrary traffic; every malformed datagram —
truncation, foreign magic, stale wire versions, length lies — must be
counted and dropped without ever raising into the event loop.
"""

import socket
import struct

import pytest

from repro.net.kernel import LiveKernel
from repro.net.udp import UdpTransport
from repro.net.wire import HEADER_SIZE, MAGIC, WIRE_VERSION, encode_frame, frame
from repro.replication.codec import _ENVELOPE, _pack_str

pytestmark = pytest.mark.live


@pytest.fixture
def live_port():
    kernel = LiveKernel()
    transport = UdpTransport(kernel.loop)
    received = []
    port = transport.attach("n0", received.append)
    probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    try:
        yield kernel, port, probe, received
    finally:
        probe.close()
        transport.close()
        kernel.close()


def pump(kernel, seconds=0.1):
    kernel.run(until=kernel.now + seconds)


def valid_frame():
    return encode_frame("stranger", {"kind": "probe"})


class TestFrameRejection:
    def test_truncated_header_is_counted_not_raised(self, live_port):
        kernel, port, probe, received = live_port
        probe.sendto(b"CT", port.address)                    # 2 of 7 bytes
        probe.sendto(valid_frame()[: HEADER_SIZE - 1], port.address)
        pump(kernel)
        assert port.frames_rejected == 2
        assert received == []

    def test_wrong_wire_version_rejected(self, live_port):
        kernel, port, probe, received = live_port
        data = bytearray(valid_frame())
        data[2] = WIRE_VERSION + 1
        probe.sendto(bytes(data), port.address)
        pump(kernel)
        assert port.frames_rejected == 1
        assert received == []

    def test_foreign_magic_rejected(self, live_port):
        kernel, port, probe, received = live_port
        data = bytearray(valid_frame())
        data[0:2] = b"XX"
        probe.sendto(bytes(data), port.address)
        pump(kernel)
        assert port.frames_rejected == 1

    def test_length_mismatch_rejected(self, live_port):
        kernel, port, probe, received = live_port
        oversized = valid_frame() + b"trailing-garbage"
        truncated_body = valid_frame()[:-3]
        probe.sendto(oversized, port.address)
        probe.sendto(truncated_body, port.address)
        pump(kernel)
        assert port.frames_rejected == 2
        assert received == []

    def test_header_lying_about_length_rejected(self, live_port):
        kernel, port, probe, received = live_port
        body = b"\x00" * 16
        lying = MAGIC + bytes([WIRE_VERSION]) + struct.pack("<I", 9999) + body
        probe.sendto(lying, port.address)
        pump(kernel)
        assert port.frames_rejected == 1

    def test_valid_frame_still_delivered_after_garbage(self, live_port):
        kernel, port, probe, received = live_port
        probe.sendto(b"\x00", port.address)
        probe.sendto(valid_frame(), port.address)
        pump(kernel)
        assert port.frames_rejected == 1
        assert port.frames_received == 1
        assert len(received) == 1
        assert received[0].src == "stranger"

    def test_rejections_land_in_the_metrics_registry(self, live_port):
        kernel, port, probe, received = live_port
        registry = port.transport.metrics
        with registry.session():
            counter = registry.get("udp_datagrams_rejected_total")
            before = counter.value(node="n0", reason="truncated")
            probe.sendto(b"CT", port.address)
            pump(kernel)
            after = counter.value(node="n0", reason="truncated")
        assert after == before + 1

    def test_rejection_reasons_are_tallied_per_port(self, live_port):
        kernel, port, probe, received = live_port
        probe.sendto(b"CT", port.address)                  # truncated header
        bad_magic = bytearray(valid_frame())
        bad_magic[0:2] = b"XX"
        probe.sendto(bytes(bad_magic), port.address)
        stale = bytearray(valid_frame())
        stale[2] = WIRE_VERSION + 1
        probe.sendto(bytes(stale), port.address)
        probe.sendto(valid_frame() + b"junk", port.address)
        pump(kernel)
        assert port.rejected_by_reason == {
            "truncated": 1, "magic": 1, "version": 1, "length": 1,
        }
        assert port.frames_rejected == 4

    def test_a_malformed_body_is_counted_and_the_drain_reads_on(self, live_port):
        """Sound frames with unsound bodies: a value payload that is a
        dict keyed by a list (unhashable, a ``TypeError``), and a bare
        envelope — the client channel, exempt from any MAC — whose
        ``Result`` body is what v3 read as the JSON ``{}`` (a
        ``KeyError`` then; a count past the end now).  Each must reach the port as a counted
        ``payload`` rejection, and the frame behind them must still be
        read."""
        kernel, port, probe, received = live_port
        key_is_a_list = b"\x02\x01\x00\x00\x00\x00\x03\x00\x00\x00[1]\x05"
        probe.sendto(frame("stranger", b"\x06" + key_is_a_list), port.address)
        reply_header = _ENVELOPE.pack(1, 8, 1, 3) + _pack_str("g") * 2 + _pack_str("b7")
        probe.sendto(frame("stranger", b"\x00" + reply_header + b"\x02\x00\x00\x00{}"),
                     port.address)
        probe.sendto(valid_frame(), port.address)
        pump(kernel)
        assert port.rejected_by_reason == {"payload": 2}
        assert port.frames_received == 1
        assert len(received) == 1
