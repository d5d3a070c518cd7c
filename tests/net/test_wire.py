"""Deterministic error-path tests for the live wire format.

Round-trip coverage lives in ``tests/properties/test_wire_roundtrip.py``;
this file pins the specific rejections the daemon relies on to survive a
hostile or confused peer on its UDP port.
"""

import struct

import pytest

from repro.net.wire import (
    FrameError,
    HEADER_SIZE,
    MAGIC,
    WIRE_VERSION,
    decode_frame_ex,
    decode_payload,
    encode_frame,
    encode_payload,
    frame,
    unframe_ex,
)
from repro.replication import MsgType, make_envelope
from repro.replication.codec import _pack_str
from repro.rpc import Invocation
from repro.totem.messages import LostMessage
from repro.trace import TraceContext


def sample_envelope():
    return make_envelope(
        MsgType.REQUEST, "cli", "srv", 1, 7, "n0",
        body=Invocation("get_time", ()),
    )


class TestFraming:
    def test_header_layout(self):
        data = frame("n0", b"xyz")
        assert data[:2] == MAGIC
        assert data[2] == WIRE_VERSION
        (length,) = struct.unpack_from("<I", data, 3)
        assert length == len(data) - HEADER_SIZE

    def test_unframe_returns_src_and_payload(self):
        src, trace, payload = unframe_ex(frame("n2", b"payload"))
        assert src == "n2"
        assert trace is None
        assert payload == b"payload"

    def test_short_frame_rejected(self):
        with pytest.raises(FrameError, match="short frame"):
            unframe_ex(b"CT\x01")

    def test_bad_magic_rejected(self):
        data = bytearray(frame("n0", b"x"))
        data[0] = ord("X")
        with pytest.raises(FrameError, match="bad magic"):
            unframe_ex(bytes(data))

    def test_future_version_rejected(self):
        data = bytearray(frame("n0", b"x"))
        data[2] = WIRE_VERSION + 1
        with pytest.raises(FrameError, match="unsupported wire version"):
            unframe_ex(bytes(data))

    def test_length_mismatch_rejected(self):
        data = frame("n0", b"x")
        with pytest.raises(FrameError, match="length mismatch"):
            unframe_ex(data + b"zz")

    def test_trailing_garbage_after_payload_rejected(self):
        data = frame("n0", encode_payload(sample_envelope()) + b"\x00")
        with pytest.raises(FrameError, match="trailing bytes"):
            decode_frame_ex(data)


class TestTraceField:
    def test_trace_context_roundtrips(self):
        tctx = TraceContext("00ab00ab00ab00ab", "client.c1")
        data = encode_frame("n0", sample_envelope(), trace=tctx)
        src, payload, decoded = decode_frame_ex(data)
        assert src == "n0"
        assert payload == sample_envelope()
        assert decoded == tctx
        assert decoded.parent == "client.c1"

    def test_traced_frame_keeps_source_and_payload(self):
        tctx = TraceContext("00ab00ab00ab00ab", "client.c1")
        data = encode_frame("n0", sample_envelope(), trace=tctx)
        src, payload, _trace = decode_frame_ex(data)
        assert src == "n0"
        assert payload == sample_envelope()
        src, _trace, payload_bytes = unframe_ex(data)
        assert src == "n0"
        assert payload_bytes == encode_payload(sample_envelope())

    def test_frame_without_trace_decodes_to_none(self):
        data = encode_frame("n0", sample_envelope())
        _, _, decoded = decode_frame_ex(data)
        assert decoded is None

    def test_v2_frame_without_flags_byte_rejected(self):
        # Nothing emits v2 (no flags byte, no trace context) any more; a
        # well-formed v2 frame is refused by version, not mis-parsed.
        payload_bytes = encode_payload(sample_envelope())
        body = _pack_str("n1") + payload_bytes
        data = MAGIC + bytes([2]) + struct.pack("<I", len(body)) + body
        with pytest.raises(FrameError, match="unsupported wire version") as exc:
            decode_frame_ex(data)
        assert exc.value.reason == "version"

    def test_unknown_flag_bits_rejected(self):
        body = _pack_str("n0") + bytes([0x80]) + b"x"
        data = MAGIC + bytes([WIRE_VERSION]) + struct.pack("<I", len(body)) + body
        with pytest.raises(FrameError, match="unknown frame flags") as exc:
            unframe_ex(data)
        assert exc.value.reason == "trace"

    def test_truncated_trace_context_rejected(self):
        tctx = TraceContext("00ab00ab00ab00ab", "client.c1")
        data = frame("n0", b"", trace=tctx)
        # Chop the body mid trace-id; patch the length so only the trace
        # field (not the frame length check) can reject it.
        body = data[HEADER_SIZE:][:-10]
        cut = MAGIC + bytes([WIRE_VERSION]) + struct.pack("<I", len(body)) + body
        with pytest.raises(FrameError) as exc:
            unframe_ex(cut)
        assert exc.value.reason == "trace"

    def test_missing_flags_byte_rejected_as_truncated(self):
        body = _pack_str("n0")  # v3 body that ends before the flags byte
        data = MAGIC + bytes([WIRE_VERSION]) + struct.pack("<I", len(body)) + body
        with pytest.raises(FrameError, match="flags byte") as exc:
            unframe_ex(data)
        assert exc.value.reason == "truncated"

    def test_rejection_reasons_are_machine_readable(self):
        cases = [
            (b"CT\x01", "truncated"),
            (b"XX\x03" + struct.pack("<I", 0), "magic"),
            (MAGIC + bytes([WIRE_VERSION + 1]) + struct.pack("<I", 0), "version"),
            (frame("n0", b"x") + b"zz", "length"),
        ]
        for data, reason in cases:
            with pytest.raises(FrameError) as exc:
                unframe_ex(data)
            assert exc.value.reason == reason, data

    def test_trailing_garbage_reason(self):
        # LostMessage is fixed-size, so the framing layer (not the
        # payload codec) sees the leftover byte.
        data = frame("n0", encode_payload(LostMessage()) + b"\x00")
        with pytest.raises(FrameError) as exc:
            decode_frame_ex(data)
        assert exc.value.reason == "trailing"

    def test_envelope_trailing_garbage_is_a_payload_error(self):
        data = frame("n0", encode_payload(sample_envelope()) + b"\x00")
        with pytest.raises(FrameError) as exc:
            decode_frame_ex(data)
        assert exc.value.reason == "payload"


class TestPayloads:
    def test_envelope_roundtrip(self):
        env = sample_envelope()
        src, decoded, _trace = decode_frame_ex(encode_frame("n0", env))
        assert src == "n0"
        assert decoded == env

    def test_unknown_kind_tag_rejected(self):
        with pytest.raises(FrameError, match="unknown payload kind"):
            decode_payload(b"\xff", 0)

    def test_empty_payload_rejected(self):
        with pytest.raises(FrameError):
            decode_payload(b"", 0)

    def test_unencodable_payload_rejected(self):
        with pytest.raises(FrameError, match="not wire-encodable"):
            encode_payload(object())
