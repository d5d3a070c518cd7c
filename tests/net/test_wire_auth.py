"""Wire-frame authentication: the MAC field and its failure modes.

The authenticated Byzantine mode requires every ring frame to carry a
key id + nonce + truncated-HMAC field behind the v3 flags byte.  These
tests pin the negative paths — truncated, forged, and replayed MAC
fields must be rejected with *distinct* ``FrameError.reason`` codes that
feed the per-reason rejection counters on a live port — and the
compatibility paths: v3 frames without a MAC still decode when auth is
off, a signed frame decodes on an unauthenticated receiver (the field is
parsed and skipped), and the bare-envelope client channel stays exempt
even on an authenticated receiver.
"""

import socket
import struct

import pytest

from repro.errors import FrameError
from repro.net.auth import AUTH_FIELD_SIZE, WireAuthenticator
from repro.net.kernel import LiveKernel
from repro.net.udp import UdpTransport
from repro.net.wire import (
    HEADER_SIZE,
    MAGIC,
    WIRE_VERSION,
    Batch,
    decode_frame_ex,
    encode_frame,
    encode_payload,
)
from repro.replication.envelope import Envelope, MsgType, make_envelope
from repro.totem.messages import RegularMessage, RingBeacon, RingId

pytestmark = pytest.mark.live

SECRET = "test-group-secret"


def signer() -> WireAuthenticator:
    return WireAuthenticator.from_secret(SECRET)


def beacon() -> RingBeacon:
    return RingBeacon(RingId(3, "n0"), "n0")


def client_envelope() -> Envelope:
    return make_envelope(MsgType.REQUEST, "client-1", "timesvc", 1, 1,
                         "c0", {"method": "gettimeofday"})


class TestSignedRoundtrip:
    def test_signed_frame_verifies_and_decodes(self):
        sender, receiver = signer(), signer()
        data = encode_frame("n0", beacon(), None, sender)
        src, payload, _ = decode_frame_ex(data, auth=receiver, auth_node="n1")
        assert src == "n0"
        assert payload == beacon()
        assert sender.frames_signed == 1
        assert receiver.frames_verified == 1

    def test_nonces_strictly_increase_per_sender(self):
        sender, receiver = signer(), signer()
        for _ in range(3):
            data = encode_frame("n0", beacon(), None, sender)
            decode_frame_ex(data, auth=receiver, auth_node="n1")
        assert receiver.frames_verified == 3

    def test_receive_watermarks_are_per_receiver(self):
        # The in-process testbed shares one verifier among all nodes:
        # the same datagram may legitimately reach several receivers
        # (multicast reuses one signed buffer), so watermarks must be
        # keyed (receiver, sender).
        sender, receiver = signer(), signer()
        data = encode_frame("n0", beacon(), None, sender)
        decode_frame_ex(data, auth=receiver, auth_node="n1")
        decode_frame_ex(data, auth=receiver, auth_node="n2")  # not a replay


class TestNegativePaths:
    def test_missing_mac_on_ring_frame_rejected(self):
        receiver = signer()
        data = encode_frame("n0", beacon())  # v3, no auth field
        with pytest.raises(FrameError) as exc:
            decode_frame_ex(data, auth=receiver, auth_node="n1")
        assert exc.value.reason == "auth-missing"

    def test_unsigned_batch_rejected_as_missing(self):
        """A batch is ring traffic, even one that carries envelopes."""
        ordered = RegularMessage(RingId(3, "n0"), 1, "n0", client_envelope())
        data = encode_frame("n0", Batch((ordered, beacon())))
        with pytest.raises(FrameError) as exc:
            decode_frame_ex(data, auth=signer(), auth_node="n1")
        assert exc.value.reason == "auth-missing"

    def test_one_flipped_byte_in_an_item_rejects_the_whole_batch(self):
        ordered = RegularMessage(RingId(3, "n0"), 1, "n0", client_envelope())
        data = bytearray(encode_frame("n0", Batch((ordered, beacon())), None, signer()))
        data[bytes(data).index(encode_payload(ordered)) + 12] ^= 0x01
        with pytest.raises(FrameError) as exc:
            decode_frame_ex(bytes(data), auth=signer(), auth_node="n1")
        assert exc.value.reason == "auth-forged"

    def test_client_envelope_exempt_from_auth(self):
        receiver = signer()
        data = encode_frame("client", client_envelope())
        src, payload, _ = decode_frame_ex(data, auth=receiver,
                                          auth_node="n1")
        assert src == "client"
        assert payload.sender == "c0"

    def test_truncated_auth_field_rejected(self):
        # Hand-build a frame whose auth flag promises a field the body
        # cannot hold.
        src_field = struct.pack("<H", 2) + b"n0"
        body = src_field + bytes([0x02]) + b"\x00" * 5
        data = MAGIC + bytes([WIRE_VERSION]) + struct.pack("<I", len(body)) + body
        with pytest.raises(FrameError) as exc:
            decode_frame_ex(data, auth=signer(), auth_node="n1")
        assert exc.value.reason == "auth-truncated"

    def test_tampered_payload_rejected_as_forged(self):
        data = bytearray(encode_frame("n0", beacon(), None, signer()))
        data[-1] ^= 0xFF  # flip one payload byte; length stays right
        with pytest.raises(FrameError) as exc:
            decode_frame_ex(bytes(data), auth=signer(), auth_node="n1")
        assert exc.value.reason == "auth-forged"

    def test_unknown_key_id_rejected_as_forged(self):
        sender = signer()
        data = bytearray(encode_frame("n0", beacon(), None, sender))
        # The auth field sits right after src (2+2 bytes) + flags (1).
        key_id_offset = HEADER_SIZE + 4 + 1
        data[key_id_offset] = 7  # no such key in the ring
        with pytest.raises(FrameError) as exc:
            decode_frame_ex(bytes(data), auth=signer(), auth_node="n1")
        assert exc.value.reason == "auth-forged"

    def test_wrong_secret_rejected_as_forged(self):
        data = encode_frame("n0", beacon(), None, signer())
        outsider = WireAuthenticator.from_secret("some-other-secret")
        with pytest.raises(FrameError) as exc:
            decode_frame_ex(data, auth=outsider, auth_node="n1")
        assert exc.value.reason == "auth-forged"

    def test_replayed_frame_rejected(self):
        receiver = signer()
        data = encode_frame("n0", beacon(), None, signer())
        decode_frame_ex(data, auth=receiver, auth_node="n1")
        with pytest.raises(FrameError) as exc:
            decode_frame_ex(data, auth=receiver, auth_node="n1")
        assert exc.value.reason == "auth-replay"

    def test_stale_nonce_rejected_even_unreplayed(self):
        # Reordering: frame 2 arrives before frame 1; the strict
        # watermark rejects frame 1 as a replay (degrades to a drop).
        sender, receiver = signer(), signer()
        first = encode_frame("n0", beacon(), None, sender)
        second = encode_frame("n0", beacon(), None, sender)
        decode_frame_ex(second, auth=receiver, auth_node="n1")
        with pytest.raises(FrameError) as exc:
            decode_frame_ex(first, auth=receiver, auth_node="n1")
        assert exc.value.reason == "auth-replay"


class TestCompatibility:
    def test_unauthenticated_v3_frame_decodes_when_auth_off(self):
        data = encode_frame("n0", beacon())
        src, payload, _trace = decode_frame_ex(data)
        assert (src, payload) == ("n0", beacon())

    def test_signed_frame_decodes_on_unauthenticated_receiver(self):
        data = encode_frame("n0", beacon(), None, signer())
        src, payload, _trace = decode_frame_ex(data)  # field parsed and skipped
        assert (src, payload) == ("n0", beacon())

    def test_auth_field_length_matches_wire_layout(self):
        plain = encode_frame("n0", beacon())
        authed = encode_frame("n0", beacon(), None, signer())
        assert len(authed) - len(plain) == AUTH_FIELD_SIZE


class TestPortCounters:
    """Auth failures must land in the live port's per-reason tallies."""

    @pytest.fixture
    def authed_port(self):
        kernel = LiveKernel()
        transport = UdpTransport(kernel.loop, auth=signer())
        received = []
        port = transport.attach("n0", received.append)
        probe = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            yield kernel, port, probe, received
        finally:
            probe.close()
            transport.close()
            kernel.close()

    @staticmethod
    def pump(kernel, seconds=0.1):
        kernel.run(until=kernel.now + seconds)

    def test_each_auth_reason_tallied_distinctly(self, authed_port):
        kernel, port, probe, received = authed_port
        probe.sendto(encode_frame("liar", beacon()), port.address)
        signed = encode_frame("liar", beacon(), None, signer())
        probe.sendto(signed, port.address)        # verifies (delivered)
        probe.sendto(signed, port.address)        # replay of the same
        forged = bytearray(encode_frame("liar", beacon(), None, signer()))
        forged[-1] ^= 0xFF
        probe.sendto(bytes(forged), port.address)
        self.pump(kernel)
        assert port.rejected_by_reason["auth-missing"] == 1
        assert port.rejected_by_reason["auth-replay"] == 1
        assert port.rejected_by_reason["auth-forged"] == 1
        assert port.frames_rejected == 3
        assert len(received) == 1  # the valid signed frame got through
