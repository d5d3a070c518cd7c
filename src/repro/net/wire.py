"""Byte-level framing and payload codec for the live transport.

:mod:`repro.replication.codec` serializes the *protocol-level* messages
(envelopes and their bodies).  This module adds the two layers needed to
put them on a real wire:

* a **payload codec** covering everything a node transmits — bare
  envelopes (the client channel) plus the Totem wire messages
  (:class:`~repro.totem.messages.RegularMessage`, tokens, joins, commit
  tokens, beacons), with the envelope codec reused for message bodies;
* explicit **framing** with a magic marker, a version byte and a length
  field, so a receiver can reject truncated or foreign datagrams before
  attempting to decode them, and so the same format can later run over a
  stream transport.

Frame layout (all integers little-endian)::

    offset 0  magic   2 bytes  b"CT"
           2  version 1 byte   WIRE_VERSION
           3  length  4 bytes  byte length of the body
           7  body    = src-node (length-prefixed UTF-8)
                      + flags (1 byte)
                      + trace context (if flag bit 0: trace id + causal
                        parent, both length-prefixed UTF-8)
                      + payload bytes

A frame of any other version is rejected (``FrameError.reason ==
"version"``).

Payload layout: a one-byte kind tag followed by kind-specific fields.
:class:`~repro.totem.messages.RegularMessage` payloads nest recursively
(an ordered message usually carries an envelope; recovery tombstones and
arbitrary JSON-able payloads are also covered), so one entry point
handles every frame either backend can carry.
"""

from __future__ import annotations

import json
import struct
from typing import Any, Optional, Tuple

from ..errors import FrameError
from ..trace import TraceContext
from ..replication.codec import (
    CodecError,
    _pack_json,
    _pack_str,
    _unpack_json,
    _unpack_str,
    decode_envelope,
    encode_envelope,
)
from ..replication.envelope import Envelope
from ..shard.summary import ShardSummary
from ..totem.messages import (
    CommitMemberInfo,
    CommitToken,
    JoinMessage,
    LostMessage,
    RegularMessage,
    RegularToken,
    RingBeacon,
    RingId,
)

#: Frame magic marker ("Consistent Time").
MAGIC = b"CT"
#: Bump on any incompatible change to the frame or payload layout.
#: v2: CCS messages carry a covering operation id (round coalescing) and
#: time-transfer state carries per-thread operation-numbering points.
#: v3: a flags byte after the source, with an optional trace context
#: (trace id + causal parent) for cross-node causal tracing.
WIRE_VERSION = 3
#: magic + version + length.
HEADER_SIZE = 7
#: Frame flag: a trace context follows the source field.
_FLAG_TRACE = 0x01
#: Frame flag: an auth field (key id + nonce + MAC) follows the trace
#: context — see :mod:`repro.net.auth`.
_FLAG_AUTH = 0x02
_KNOWN_FLAGS = _FLAG_TRACE | _FLAG_AUTH

# -- payload kind tags ----------------------------------------------------
_KIND_ENVELOPE = 0
_KIND_REGULAR = 1
_KIND_TOKEN = 2
_KIND_JOIN = 3
_KIND_COMMIT = 4
_KIND_BEACON = 5
_KIND_JSON = 6
_KIND_LOST = 7
_KIND_SUMMARY = 8


# -- primitives -----------------------------------------------------------

def _pack_ring(ring_id: RingId) -> bytes:
    return struct.pack("<q", ring_id.seq) + _pack_str(ring_id.representative)


def _unpack_ring(buffer: bytes, offset: int) -> Tuple[RingId, int]:
    (seq,) = struct.unpack_from("<q", buffer, offset)
    representative, offset = _unpack_str(buffer, offset + 8)
    return RingId(seq, representative), offset


def _pack_opt_ring(ring_id: Optional[RingId]) -> bytes:
    if ring_id is None:
        return b"\x00"
    return b"\x01" + _pack_ring(ring_id)


def _unpack_opt_ring(buffer: bytes, offset: int) -> Tuple[Optional[RingId], int]:
    flag = buffer[offset]
    offset += 1
    if not flag:
        return None, offset
    return _unpack_ring(buffer, offset)


def _pack_str_set(values) -> bytes:
    items = sorted(values)
    out = [struct.pack("<H", len(items))]
    out.extend(_pack_str(v) for v in items)
    return b"".join(out)


def _unpack_str_tuple(buffer: bytes, offset: int) -> Tuple[Tuple[str, ...], int]:
    (count,) = struct.unpack_from("<H", buffer, offset)
    offset += 2
    values = []
    for _ in range(count):
        value, offset = _unpack_str(buffer, offset)
        values.append(value)
    return tuple(values), offset


def _pack_str_tuple(values) -> bytes:
    out = [struct.pack("<H", len(values))]
    out.extend(_pack_str(v) for v in values)
    return b"".join(out)


# -- payload codec --------------------------------------------------------

def encode_payload(payload: Any) -> bytes:
    """Serialize one transport payload (tag byte + fields)."""
    if isinstance(payload, Envelope):
        return bytes([_KIND_ENVELOPE]) + encode_envelope(payload)
    if isinstance(payload, RegularMessage):
        return (
            bytes([_KIND_REGULAR])
            + _pack_ring(payload.ring_id)
            + struct.pack("<q?", payload.seq, payload.retransmission)
            + _pack_str(payload.sender)
            + encode_payload(payload.payload)
        )
    if isinstance(payload, RegularToken):
        aru_id = payload.aru_id
        return (
            bytes([_KIND_TOKEN])
            + _pack_ring(payload.ring_id)
            + struct.pack("<qqq?", payload.token_seq, payload.seq,
                          payload.aru, aru_id is not None)
            + (_pack_str(aru_id) if aru_id is not None else b"")
            + struct.pack("<H", len(payload.rtr))
            + b"".join(struct.pack("<q", seq) for seq in payload.rtr)
        )
    if isinstance(payload, JoinMessage):
        return (
            bytes([_KIND_JOIN])
            + _pack_str(payload.sender)
            + _pack_str_set(payload.proc_set)
            + _pack_str_set(payload.fail_set)
            + struct.pack("<q", payload.ring_seq)
        )
    if isinstance(payload, CommitToken):
        parts = [
            bytes([_KIND_COMMIT]),
            _pack_ring(payload.ring_id),
            _pack_str_tuple(payload.members),
            struct.pack("<qq", payload.token_seq, payload.rotation),
            struct.pack("<H", len(payload.info)),
        ]
        for member in sorted(payload.info):
            info = payload.info[member]
            parts.append(_pack_str(member))
            parts.append(_pack_opt_ring(info.old_ring_id))
            parts.append(struct.pack("<qq?", info.high_seq,
                                     info.recovery_aru, info.recovered))
        parts.append(struct.pack("<H", len(payload.rtr)))
        for ring_id, seq in payload.rtr:
            parts.append(_pack_ring(ring_id))
            parts.append(struct.pack("<q", seq))
        return b"".join(parts)
    if isinstance(payload, RingBeacon):
        return (
            bytes([_KIND_BEACON])
            + _pack_ring(payload.ring_id)
            + _pack_str(payload.sender)
        )
    if isinstance(payload, LostMessage):
        return bytes([_KIND_LOST])
    if isinstance(payload, ShardSummary):
        return (
            bytes([_KIND_SUMMARY])
            + struct.pack("<qqqqq", payload.shard, payload.value_us,
                          payload.offset_us, payload.round_seq,
                          payload.error_us)
            + _pack_str(payload.group)
            + _pack_str(payload.signature)
        )
    # Fallback: any JSON-able payload (e.g. TotemBus pub/sub traffic).
    try:
        return bytes([_KIND_JSON]) + _pack_json(payload)
    except CodecError as exc:
        raise FrameError(
            f"payload {type(payload).__name__} is not wire-encodable: {exc}",
            reason="payload") from exc


def decode_payload(buffer: bytes, offset: int = 0) -> Tuple[Any, int]:
    """Inverse of :func:`encode_payload`; returns ``(payload, offset)``."""
    try:
        kind = buffer[offset]
        offset += 1
        if kind == _KIND_ENVELOPE:
            # The envelope codec consumes the rest of its buffer region;
            # envelopes only ever terminate a payload, so slicing is safe.
            return decode_envelope(buffer[offset:]), len(buffer)
        if kind == _KIND_REGULAR:
            ring_id, offset = _unpack_ring(buffer, offset)
            seq, retransmission = struct.unpack_from("<q?", buffer, offset)
            offset += struct.calcsize("<q?")
            sender, offset = _unpack_str(buffer, offset)
            inner, offset = decode_payload(buffer, offset)
            return RegularMessage(ring_id, seq, sender, inner, retransmission), offset
        if kind == _KIND_TOKEN:
            ring_id, offset = _unpack_ring(buffer, offset)
            token_seq, seq, aru, has_aru_id = struct.unpack_from("<qqq?", buffer, offset)
            offset += struct.calcsize("<qqq?")
            aru_id = None
            if has_aru_id:
                aru_id, offset = _unpack_str(buffer, offset)
            (count,) = struct.unpack_from("<H", buffer, offset)
            offset += 2
            rtr = struct.unpack_from(f"<{count}q", buffer, offset)
            offset += 8 * count
            return RegularToken(ring_id, token_seq, seq, aru, aru_id, tuple(rtr)), offset
        if kind == _KIND_JOIN:
            sender, offset = _unpack_str(buffer, offset)
            proc_set, offset = _unpack_str_tuple(buffer, offset)
            fail_set, offset = _unpack_str_tuple(buffer, offset)
            (ring_seq,) = struct.unpack_from("<q", buffer, offset)
            return (
                JoinMessage(sender, frozenset(proc_set), frozenset(fail_set), ring_seq),
                offset + 8,
            )
        if kind == _KIND_COMMIT:
            ring_id, offset = _unpack_ring(buffer, offset)
            members, offset = _unpack_str_tuple(buffer, offset)
            token_seq, rotation = struct.unpack_from("<qq", buffer, offset)
            offset += 16
            (count,) = struct.unpack_from("<H", buffer, offset)
            offset += 2
            info = {}
            for _ in range(count):
                member, offset = _unpack_str(buffer, offset)
                old_ring_id, offset = _unpack_opt_ring(buffer, offset)
                high_seq, recovery_aru, recovered = struct.unpack_from("<qq?", buffer, offset)
                offset += struct.calcsize("<qq?")
                info[member] = CommitMemberInfo(
                    old_ring_id, high_seq, recovery_aru, recovered)
            (count,) = struct.unpack_from("<H", buffer, offset)
            offset += 2
            rtr = []
            for _ in range(count):
                rtr_ring, offset = _unpack_ring(buffer, offset)
                (seq,) = struct.unpack_from("<q", buffer, offset)
                offset += 8
                rtr.append((rtr_ring, seq))
            return CommitToken(ring_id, members, token_seq, rotation, info, rtr), offset
        if kind == _KIND_BEACON:
            ring_id, offset = _unpack_ring(buffer, offset)
            sender, offset = _unpack_str(buffer, offset)
            return RingBeacon(ring_id, sender), offset
        if kind == _KIND_JSON:
            return _unpack_json(buffer, offset)
        if kind == _KIND_LOST:
            return LostMessage(), offset
        if kind == _KIND_SUMMARY:
            shard, value_us, offset_us, round_seq, error_us = (
                struct.unpack_from("<qqqqq", buffer, offset))
            offset += struct.calcsize("<qqqqq")
            group, offset = _unpack_str(buffer, offset)
            signature, offset = _unpack_str(buffer, offset)
            return ShardSummary(shard, group, value_us, offset_us,
                                round_seq, error_us, signature), offset
        raise FrameError(f"unknown payload kind {kind}", reason="payload")
    except (struct.error, IndexError, UnicodeDecodeError,
            json.JSONDecodeError, CodecError) as exc:
        raise FrameError(f"malformed payload: {exc}", reason="payload") from exc


# -- framing --------------------------------------------------------------

def frame(src: str, payload_bytes: bytes,
          trace: Optional[TraceContext] = None,
          auth=None) -> bytes:
    """Wrap encoded payload bytes in a versioned, length-checked frame.

    ``trace`` attaches the optional v3 trace-context field (a compact
    trace id plus the causal parent hop).  ``auth`` — a
    :class:`~repro.net.auth.WireAuthenticator` — attaches the optional
    auth field (key id + nonce + truncated HMAC over the whole frame
    body), marking the frame with the auth flag.
    """
    flags = _FLAG_TRACE if trace is not None else 0
    if auth is not None:
        flags |= _FLAG_AUTH
    parts = [_pack_str(src), bytes([flags])]
    if trace is not None:
        parts.append(_pack_str(trace.trace_id))
        parts.append(_pack_str(trace.parent))
    if auth is not None:
        parts.append(auth.sign_field(src, b"".join(parts), payload_bytes))
    parts.append(payload_bytes)
    body = b"".join(parts)
    return MAGIC + bytes([WIRE_VERSION]) + struct.pack("<I", len(body)) + body


def unframe_ex(data: bytes, *, auth=None,
               auth_node: Optional[str] = None
               ) -> Tuple[str, Optional[TraceContext], bytes]:
    """Validate a frame; returns ``(src_node, trace, payload_bytes)``.

    Raises :class:`~repro.errors.FrameError` on anything that is not a
    complete frame of the current version — foreign datagrams,
    truncation, or trailing garbage.

    With ``auth`` set (a :class:`~repro.net.auth.WireAuthenticator`),
    the frame's auth field is *required* for every ring payload kind
    (bare envelopes — the client channel — stay exempt) and is verified
    against the keyring and the replay watermark for the receiving node
    ``auth_node``; failures raise with the distinct reasons
    ``auth-missing`` / ``auth-truncated`` / ``auth-forged`` /
    ``auth-replay``.  Without ``auth``, an attached auth field is parsed
    and skipped, so unauthenticated receivers interoperate.
    """
    if len(data) < HEADER_SIZE:
        raise FrameError(f"short frame ({len(data)} bytes)",
                         reason="truncated")
    if data[:2] != MAGIC:
        raise FrameError(f"bad magic {data[:2]!r}", reason="magic")
    if data[2] != WIRE_VERSION:
        raise FrameError(f"unsupported wire version {data[2]}",
                         reason="version")
    (length,) = struct.unpack_from("<I", data, 3)
    body = data[HEADER_SIZE:]
    if len(body) != length:
        raise FrameError(
            f"frame length mismatch: header says {length}, got {len(body)}",
            reason="length")
    try:
        src, offset = _unpack_str(body, 0)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise FrameError(f"malformed frame source: {exc}",
                         reason="source") from exc
    if offset > len(body):
        raise FrameError("frame source field overruns the body",
                         reason="source")
    trace: Optional[TraceContext] = None
    authenticated = False
    if offset >= len(body):
        raise FrameError("frame truncated before the flags byte",
                         reason="truncated")
    flags = body[offset]
    offset += 1
    if flags & ~_KNOWN_FLAGS:
        raise FrameError(f"unknown frame flags {flags:#04x}",
                         reason="trace")
    if flags & _FLAG_TRACE:
        try:
            trace_id, offset = _unpack_str(body, offset)
            parent, offset = _unpack_str(body, offset)
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise FrameError(f"malformed trace context: {exc}",
                             reason="trace") from exc
        if offset > len(body):
            raise FrameError("trace context overruns the body",
                             reason="trace")
        trace = TraceContext(trace_id, parent)
    if flags & _FLAG_AUTH:
        from .auth import AUTH_FIELD_SIZE, MAC_SIZE

        if len(body) - offset < AUTH_FIELD_SIZE:
            raise FrameError(
                f"auth field truncated ({len(body) - offset} of "
                f"{AUTH_FIELD_SIZE} bytes)", reason="auth-truncated")
        key_id = body[offset]
        (nonce,) = struct.unpack_from("<Q", body, offset + 1)
        mac = body[offset + 9:offset + 9 + MAC_SIZE]
        signed_prefix = body[:offset]
        offset += AUTH_FIELD_SIZE
        if auth is not None:
            auth.verify(
                dst=auth_node or "", src=src, key_id=key_id,
                nonce=nonce, mac=mac,
                signed_bytes=(signed_prefix
                              + bytes([key_id])
                              + struct.pack("<Q", nonce)
                              + body[offset:]))
            authenticated = True
    if auth is not None and not authenticated:
        # Auth required: only the bare-envelope client channel is exempt
        # (clients hold no group key; their requests never enter the
        # ring unmediated).
        if offset >= len(body) or body[offset] != _KIND_ENVELOPE:
            raise FrameError(
                f"unauthenticated ring frame from {src!r} "
                f"(auth mode requires a MAC)", reason="auth-missing")
    return src, trace, body[offset:]


def unframe(data: bytes) -> Tuple[str, bytes]:
    """Validate a frame; returns ``(src_node, payload_bytes)``.

    The pre-v3 two-tuple contract: any attached trace context is parsed
    (and validated) but discarded.  Use :func:`unframe_ex` to keep it.
    """
    src, _trace, payload_bytes = unframe_ex(data)
    return src, payload_bytes


def encode_frame(src: str, payload: Any,
                 trace: Optional[TraceContext] = None,
                 auth=None) -> bytes:
    """Convenience: encode and frame one payload."""
    return frame(src, encode_payload(payload), trace, auth)


def decode_frame_ex(data: bytes, *, auth=None,
                    auth_node: Optional[str] = None
                    ) -> Tuple[str, Any, Optional[TraceContext]]:
    """Unframe and decode; returns ``(src_node, payload, trace)``."""
    src, trace, payload_bytes = unframe_ex(data, auth=auth,
                                           auth_node=auth_node)
    payload, end = decode_payload(payload_bytes, 0)
    if end != len(payload_bytes):
        raise FrameError(
            f"trailing garbage: payload ends at {end} of {len(payload_bytes)} bytes",
            reason="trailing")
    return src, payload, trace


def decode_frame(data: bytes) -> Tuple[str, Any]:
    """Convenience: unframe and decode; returns ``(src_node, payload)``."""
    src, payload, _trace = decode_frame_ex(data)
    return src, payload
