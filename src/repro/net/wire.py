"""Byte-level framing and payload codec for the live transport.

:mod:`repro.replication.codec` serializes the *protocol-level* messages
(envelopes and their bodies).  This module adds the two layers needed to
put them on a real wire:

* a **payload codec** covering everything a node transmits — bare
  envelopes (the client channel) plus the Totem wire messages
  (:class:`~repro.totem.messages.RegularMessage`, tokens, joins, commit
  tokens, beacons), with the envelope codec reused for message bodies —
  like the envelope, every immutable class decoded here (the Totem
  messages but the commit token, ``ShardSummary``, ``TraceContext``) is
  a ``NamedTuple`` built positionally: see that codec for why;
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
any other value-encoded payload are also covered), so one entry point
handles every frame either backend can carry.  A :class:`Batch` (kind 9)
carries a token visit's messages as one frame (see :mod:`repro.net.udp`).
"""

from __future__ import annotations

import struct
from typing import Any, Optional, Tuple

from ..errors import FrameError
from ..trace import TraceContext
from ..replication.codec import (
    _I64,
    _MALFORMED,
    _U16,
    _U32,
    CodecError,
    _new,
    _pack_id,
    _pack_str,
    _pack_value,
    _unpack_str,
    _unpack_value,
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
from .auth import AUTH_FIELD_SIZE, AUTH_HEAD

#: Frame magic marker ("Consistent Time").
MAGIC = b"CT"
#: Bump on any incompatible change to the frame or payload layout.
#: v2: CCS messages carry a covering operation id (round coalescing) and
#: time-transfer state carries per-thread operation-numbering points.
#: v3: a flags byte after the source, with an optional trace context
#: (trace id + causal parent).  No sender sets it any more (a trace is
#: named by its operation key); a received one is validated and ignored.
#: v4: scalar value tags; RPC bodies and any other body or payload are
#: value-encoded (the JSON body tag and payload kind went).  Payload kind
#: 9 (:class:`Batch`) was appended later without a bump: a daemon older
#: than it rejects a batch for ``payload``.
WIRE_VERSION = 4
#: magic + version + length.
_HEADER = struct.Struct("<2sBI")
HEADER_SIZE = _HEADER.size
#: Frame flag: a trace context follows the source field.
_FLAG_TRACE = 0x01
#: Frame flag: an auth field (key id + nonce + MAC) follows the trace
#: context — see :mod:`repro.net.auth`.
_FLAG_AUTH = 0x02
_KNOWN_FLAGS = _FLAG_TRACE | _FLAG_AUTH
#: The flags byte as it goes on the wire, indexed by flag set.
_FLAG_BYTES = tuple(bytes([flags]) for flags in range(_KNOWN_FLAGS + 1))

# -- payload kind tags (the integer a decoder reads, the byte an encoder
# writes) ------------------------------------------------------------------
_KIND_ENVELOPE, _TAG_ENVELOPE = 0, b"\x00"
_KIND_REGULAR, _TAG_REGULAR = 1, b"\x01"
_KIND_TOKEN, _TAG_TOKEN = 2, b"\x02"
_KIND_JOIN, _TAG_JOIN = 3, b"\x03"
_KIND_COMMIT, _TAG_COMMIT = 4, b"\x04"
_KIND_BEACON, _TAG_BEACON = 5, b"\x05"
_KIND_VALUE, _TAG_VALUE = 6, b"\x06"
_KIND_LOST, _TAG_LOST = 7, b"\x07"
_KIND_SUMMARY, _TAG_SUMMARY = 8, b"\x08"
_KIND_BATCH, _TAG_BATCH = 9, b"\x09"


class Batch(tuple):
    """Two or more payloads in one frame, received as one frame each, in
    order: a u16 count, then per item a u32 length and its payload."""


# -- fixed layouts, compiled once (with the envelope codec's) -----------------
#: RegularMessage: seq, retransmission.
_REGULAR = struct.Struct("<q?")
#: RegularToken: token_seq, seq, aru, has-aru-id.
_TOKEN = struct.Struct("<qqq?")
#: CommitToken: token_seq, rotation.
_COMMIT = struct.Struct("<qq")
#: CommitMemberInfo: high_seq, recovery_aru, recovered.
_COMMIT_INFO = struct.Struct("<qq?")
#: ShardSummary: shard, value, offset, round, error bound.
_SUMMARY = struct.Struct("<qqqqq")


# -- primitives -----------------------------------------------------------

def _pack_ring(ring_id: RingId) -> bytes:
    return _I64.pack(ring_id.seq) + _pack_id(ring_id.representative)


#: The ring id last decoded, as wire bytes and as an object.  Every
#: frame on a ring carries the same id and :class:`RingId` is immutable, so
#: a frame that continues with the same bytes gets the same object.
_last_ring: Tuple[bytes, RingId] = (_pack_ring(RingId(0, "")), RingId(0, ""))


def _unpack_ring(buffer: bytes, offset: int) -> Tuple[RingId, int]:
    global _last_ring
    encoded, ring_id = _last_ring
    if buffer.startswith(encoded, offset):
        return ring_id, offset + len(encoded)
    (seq,) = _I64.unpack_from(buffer, offset)
    representative, end = _unpack_str(buffer, offset + 8)
    ring_id = _new(RingId, (seq, representative))
    if end <= len(buffer):  # else truncated: the caller rejects it
        _last_ring = (buffer[offset:end], ring_id)
    return ring_id, end


def _unpack_str_tuple(buffer: bytes, offset: int) -> Tuple[Tuple[str, ...], int]:
    (count,) = _U16.unpack_from(buffer, offset)
    offset += 2
    values = []
    for _ in range(count):
        value, offset = _unpack_str(buffer, offset)
        values.append(value)
    return tuple(values), offset


def _pack_str_tuple(values) -> bytes:
    return _U16.pack(len(values)) + b"".join(map(_pack_id, values))


# -- payload codec --------------------------------------------------------

def encode_payload(payload: Any) -> bytes:
    """Serialize one transport payload (tag byte + fields)."""
    if isinstance(payload, Envelope):
        return _TAG_ENVELOPE + encode_envelope(payload)
    if isinstance(payload, RegularMessage):
        return b"".join((
            _TAG_REGULAR,
            _pack_ring(payload.ring_id),
            _REGULAR.pack(payload.seq, payload.retransmission),
            _pack_id(payload.sender),
            encode_payload(payload.payload),
        ))
    if isinstance(payload, RegularToken):
        ring_id, token_seq, seq, aru, aru_id, rtr = payload
        return b"".join((
            _TAG_TOKEN,
            _pack_ring(ring_id),
            _TOKEN.pack(token_seq, seq, aru, aru_id is not None),
            _pack_id(aru_id) if aru_id is not None else b"",
            _U16.pack(len(rtr)),
            struct.pack(f"<{len(rtr)}q", *rtr) if rtr else b"",
        ))
    if isinstance(payload, Batch):
        items = [encode_payload(item) for item in payload]
        return b"".join((_TAG_BATCH, _U16.pack(len(items)),
                         *(_U32.pack(len(item)) + item for item in items)))
    if isinstance(payload, JoinMessage):
        return b"".join((
            _TAG_JOIN,
            _pack_id(payload.sender),
            _pack_str_tuple(sorted(payload.proc_set)),
            _pack_str_tuple(sorted(payload.fail_set)),
            _I64.pack(payload.ring_seq),
        ))
    if isinstance(payload, CommitToken):
        parts = [
            _TAG_COMMIT,
            _pack_ring(payload.ring_id),
            _pack_str_tuple(payload.members),
            _COMMIT.pack(payload.token_seq, payload.rotation),
            _U16.pack(len(payload.info)),
        ]
        for member in sorted(payload.info):
            info = payload.info[member]
            parts.append(_pack_id(member))
            old_ring_id = info.old_ring_id  # optional: a flag byte, then the id
            parts.append(b"\x00" if old_ring_id is None else b"\x01" + _pack_ring(old_ring_id))
            parts.append(_COMMIT_INFO.pack(info.high_seq, info.recovery_aru,
                                           info.recovered))
        parts.append(_U16.pack(len(payload.rtr)))
        for ring_id, seq in payload.rtr:
            parts.append(_pack_ring(ring_id))
            parts.append(_I64.pack(seq))
        return b"".join(parts)
    if isinstance(payload, RingBeacon):
        return b"".join((
            _TAG_BEACON,
            _pack_ring(payload.ring_id),
            _pack_id(payload.sender),
        ))
    if isinstance(payload, LostMessage):
        return _TAG_LOST
    if isinstance(payload, ShardSummary):
        return b"".join((
            _TAG_SUMMARY,
            _SUMMARY.pack(payload.shard, payload.value_us, payload.offset_us,
                          payload.round_seq, payload.error_us),
            _pack_id(payload.group),
            _pack_str(payload.signature),
        ))
    # Anything else, value-encoded (e.g. TotemBus pub/sub traffic).
    try:
        return _TAG_VALUE + _pack_value(payload)
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
            # The envelope codec consumes the rest of the buffer (and
            # rejects trailing bytes): envelopes only ever terminate a
            # payload.
            return decode_envelope(buffer, offset), len(buffer)
        if kind == _KIND_REGULAR:
            ring_id, offset = _unpack_ring(buffer, offset)
            seq, retransmission = _REGULAR.unpack_from(buffer, offset)
            sender, offset = _unpack_str(buffer, offset + _REGULAR.size)
            if buffer[offset] == _KIND_ENVELOPE:
                # The common case, decoded here rather than through a
                # second pass of this dispatch and its ``try``.
                inner, offset = decode_envelope(buffer, offset + 1), len(buffer)
            else:
                inner, offset = decode_payload(buffer, offset)
            return _new(RegularMessage, (ring_id, seq, sender, inner, retransmission)), offset
        if kind == _KIND_TOKEN:
            ring_id, offset = _unpack_ring(buffer, offset)
            token_seq, seq, aru, has_aru_id = _TOKEN.unpack_from(buffer, offset)
            offset += _TOKEN.size
            aru_id = None
            if has_aru_id:
                aru_id, offset = _unpack_str(buffer, offset)
            (count,) = _U16.unpack_from(buffer, offset)
            offset += 2
            rtr = ()
            if count:
                rtr = struct.unpack_from(f"<{count}q", buffer, offset)
                offset += 8 * count
            return _new(RegularToken, (ring_id, token_seq, seq, aru, aru_id, rtr)), offset
        if kind == _KIND_BATCH:
            (count,) = _U16.unpack_from(buffer, offset)
            if count < 2:
                raise FrameError(f"batch of {count} items", reason="payload")
            items, offset = [], offset + 2
            for _ in range(count):
                (size,) = _U32.unpack_from(buffer, offset)
                item, offset = buffer[offset + 4:offset + 4 + size], offset + 4 + size
                if len(item) != size:
                    raise FrameError("batch item overruns the frame", reason="payload")
                if item[:1] == _TAG_BATCH:
                    raise FrameError("nested batch", reason="payload")
                payload, end = decode_payload(item)
                if end != size:
                    raise FrameError("trailing bytes in a batch item", reason="trailing")
                items.append(payload)
            return Batch(items), offset
        if kind == _KIND_JOIN:
            sender, offset = _unpack_str(buffer, offset)
            proc_set, offset = _unpack_str_tuple(buffer, offset)
            fail_set, offset = _unpack_str_tuple(buffer, offset)
            (ring_seq,) = _I64.unpack_from(buffer, offset)
            return _new(JoinMessage, (
                sender, frozenset(proc_set), frozenset(fail_set), ring_seq)), offset + 8
        if kind == _KIND_COMMIT:
            ring_id, offset = _unpack_ring(buffer, offset)
            members, offset = _unpack_str_tuple(buffer, offset)
            token_seq, rotation = _COMMIT.unpack_from(buffer, offset)
            offset += _COMMIT.size
            (count,) = _U16.unpack_from(buffer, offset)
            offset += 2
            info = {}
            for _ in range(count):
                member, offset = _unpack_str(buffer, offset)
                old_ring_id, offset = (_unpack_ring(buffer, offset + 1) if buffer[offset]
                                       else (None, offset + 1))
                info[member] = CommitMemberInfo(
                    old_ring_id, *_COMMIT_INFO.unpack_from(buffer, offset))
                offset += _COMMIT_INFO.size
            (count,) = _U16.unpack_from(buffer, offset)
            offset += 2
            rtr = []
            for _ in range(count):
                rtr_ring, offset = _unpack_ring(buffer, offset)
                (seq,) = _I64.unpack_from(buffer, offset)
                offset += 8
                rtr.append((rtr_ring, seq))
            return CommitToken(ring_id, members, token_seq, rotation, info, rtr), offset
        if kind == _KIND_BEACON:
            ring_id, offset = _unpack_ring(buffer, offset)
            sender, offset = _unpack_str(buffer, offset)
            return _new(RingBeacon, (ring_id, sender)), offset
        if kind == _KIND_VALUE:
            return _unpack_value(buffer, offset)
        if kind == _KIND_LOST:
            return LostMessage(), offset
        if kind == _KIND_SUMMARY:
            shard, *clock = _SUMMARY.unpack_from(buffer, offset)
            group, offset = _unpack_str(buffer, offset + _SUMMARY.size)
            signature, offset = _unpack_str(buffer, offset)
            return _new(ShardSummary, (shard, group, *clock, signature)), offset
        raise FrameError(f"unknown payload kind {kind}", reason="payload")
    except (*_MALFORMED, CodecError) as exc:
        raise FrameError(f"malformed payload: {exc}", reason="payload") from exc


# -- framing --------------------------------------------------------------

def frame(src: str, payload_bytes: bytes,
          trace: Optional[TraceContext] = None,
          auth=None) -> bytes:
    """Wrap encoded payload bytes in a versioned, length-checked frame.

    ``trace`` attaches the optional trace-context field (a compact
    trace id plus the causal parent hop).  ``auth`` — a
    :class:`~repro.net.auth.WireAuthenticator` — attaches the optional
    auth field (key id + nonce + truncated HMAC over the whole frame
    body), marking the frame with the auth flag.
    """
    flags = _FLAG_TRACE if trace is not None else 0
    if auth is not None:
        flags |= _FLAG_AUTH
    # Everything between the header and the payload.
    prefix = _pack_id(src) + _FLAG_BYTES[flags]
    if trace is not None:
        prefix += _pack_str(trace.trace_id) + _pack_id(trace.parent)
    if auth is not None:
        prefix += auth.sign_field(src, prefix, payload_bytes)
    return b"".join((
        _HEADER.pack(MAGIC, WIRE_VERSION, len(prefix) + len(payload_bytes)),
        prefix,
        payload_bytes,
    ))


def _open_frame(data: bytes, auth, auth_node: Optional[str]
                ) -> Tuple[str, Optional[TraceContext], int]:
    """Validate a frame in place; returns ``(src_node, trace, offset)``
    with the payload running from ``offset`` to the end of ``data``."""
    end = len(data)
    if end < HEADER_SIZE:
        raise FrameError(f"short frame ({end} bytes)", reason="truncated")
    magic, version, length = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FrameError(f"bad magic {magic!r}", reason="magic")
    if version != WIRE_VERSION:
        raise FrameError(f"unsupported wire version {version}",
                         reason="version")
    if end - HEADER_SIZE != length:
        raise FrameError(
            f"frame length mismatch: header says {length}, "
            f"got {end - HEADER_SIZE}", reason="length")
    try:
        src, offset = _unpack_str(data, HEADER_SIZE)
    except (struct.error, IndexError, UnicodeDecodeError) as exc:
        raise FrameError(f"malformed frame source: {exc}",
                         reason="source") from exc
    if offset > end:
        raise FrameError("frame source field overruns the body",
                         reason="source")
    trace: Optional[TraceContext] = None
    authenticated = False
    if offset >= end:
        raise FrameError("frame truncated before the flags byte",
                         reason="truncated")
    flags = data[offset]
    offset += 1
    if flags & ~_KNOWN_FLAGS:
        raise FrameError(f"unknown frame flags {flags:#04x}",
                         reason="trace")
    if flags & _FLAG_TRACE:
        try:
            trace_id, offset = _unpack_str(data, offset)
            parent, offset = _unpack_str(data, offset)
        except (struct.error, IndexError, UnicodeDecodeError) as exc:
            raise FrameError(f"malformed trace context: {exc}",
                             reason="trace") from exc
        if offset > end:
            raise FrameError("trace context overruns the body",
                             reason="trace")
        trace = _new(TraceContext, (trace_id, parent))
    if flags & _FLAG_AUTH:
        if end - offset < AUTH_FIELD_SIZE:
            raise FrameError(
                f"auth field truncated ({end - offset} of "
                f"{AUTH_FIELD_SIZE} bytes)", reason="auth-truncated")
        key_id, nonce = AUTH_HEAD.unpack_from(data, offset)
        mac_at = offset + AUTH_HEAD.size
        offset += AUTH_FIELD_SIZE
        if auth is not None:
            # The sender signed the body with the MAC left out: source,
            # flags, trace context, key id and nonce, then the payload.
            auth.verify(
                dst=auth_node or "", src=src, key_id=key_id,
                nonce=nonce, mac=data[mac_at:offset],
                signed_bytes=data[HEADER_SIZE:mac_at],
                signed_tail=data[offset:])
            authenticated = True
    if auth is not None and not authenticated:
        # Auth required: only the bare-envelope client channel is exempt
        # (clients hold no group key; their requests never enter the
        # ring unmediated).
        if offset >= end or data[offset] != _KIND_ENVELOPE:
            raise FrameError(
                f"unauthenticated ring frame from {src!r} "
                f"(auth mode requires a MAC)", reason="auth-missing")
    return src, trace, offset


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
    src, trace, offset = _open_frame(data, auth, auth_node)
    return src, trace, data[offset:]


def encode_frame(src: str, payload: Any,
                 trace: Optional[TraceContext] = None,
                 auth=None) -> bytes:
    """Convenience: encode and frame one payload."""
    return frame(src, encode_payload(payload), trace, auth)


def decode_frame_ex(data: bytes, *, auth=None,
                    auth_node: Optional[str] = None
                    ) -> Tuple[str, Any, Optional[TraceContext]]:
    """Unframe and decode in place; returns ``(src_node, payload, trace)``."""
    src, trace, start = _open_frame(data, auth, auth_node)
    payload, end = decode_payload(data, start)
    if end != len(data):
        raise FrameError(
            f"trailing garbage: payload ends at {end - start} of "
            f"{len(data) - start} bytes", reason="trailing")
    return src, payload, trace
