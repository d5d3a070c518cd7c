"""The kind-8 ShardSummary payload: wire pinning and signed round trips.

Summaries cross shard boundaries, so unlike intra-group traffic they are
decoded by daemons that do not share the sender's process — the byte
layout is a compatibility surface and is pinned here.  Random round-trip
coverage rides along in ``tests/properties/test_wire_roundtrip.py``.
"""

import struct

from repro.net.wire import (
    decode_frame_ex,
    decode_payload,
    encode_payload,
    frame,
)
from repro.shard.summary import ShardSummary

_KIND_SUMMARY = 8


def sample_summary(**overrides):
    fields = dict(shard=2, group="shard2", value_us=1_722_000_000_123_456,
                  offset_us=-48_213, round_seq=907, error_us=150)
    fields.update(overrides)
    return ShardSummary(**fields)


class TestWireLayout:
    def test_kind_byte_and_fixed_fields(self):
        summary = sample_summary()
        data = encode_payload(summary)
        assert data[0] == _KIND_SUMMARY
        shard, value_us, offset_us, round_seq, error_us = struct.unpack_from(
            "<qqqqq", data, 1)
        assert (shard, value_us, offset_us, round_seq, error_us) == (
            2, 1_722_000_000_123_456, -48_213, 907, 150)

    def test_negative_offsets_survive(self):
        # Offsets are signed: a group clock may sit behind the primary's
        # physical clock.  An unsigned pack would corrupt them silently.
        summary = sample_summary(value_us=-5, offset_us=-(2**40))
        decoded, offset = decode_payload(encode_payload(summary))
        assert decoded == summary
        assert offset == len(encode_payload(summary))


class TestSignedRoundTrip:
    def test_signed_summary_survives_the_frame(self):
        signed = sample_summary().sign("overlay-secret")
        assert signed.signature
        src, decoded, _trace = decode_frame_ex(
            frame("s2n0", encode_payload(signed)))
        assert src == "s2n0"
        assert decoded == signed
        assert decoded.verify("overlay-secret")
        assert not decoded.verify("wrong")

    def test_unsigned_summary_survives_the_frame(self):
        summary = sample_summary()
        _, decoded, _trace = decode_frame_ex(
            frame("s2n0", encode_payload(summary)))
        assert decoded == summary
        assert decoded.signature == ""

    def test_on_wire_tampering_breaks_the_mac(self):
        signed = sample_summary().sign("overlay-secret")
        data = bytearray(encode_payload(signed))
        # Flip the low byte of value_us (first struct field after kind
        # and shard) — the classic "advertise a faster clock" forgery.
        data[1 + 8] ^= 0xFF
        decoded, _ = decode_payload(bytes(data))
        assert decoded != signed
        assert not decoded.verify("overlay-secret")
