"""Binary wire codec for the fault-tolerant protocol messages.

The simulation passes Python objects around and uses per-type
``wire_size()`` *estimates* for the latency model; this module is the
real encoding, compact and self-describing, of the protocol-level
messages:

* :class:`~repro.replication.envelope.Envelope` (with header),
* :class:`~repro.core.messages.CCSMessage`,
* :class:`~repro.rpc.messages.Invocation` / ``Result`` (args as values),
* :class:`~repro.core.multigroup.GroupClockStamp`,
* :class:`~repro.replication.state_transfer.Checkpoint` and
  :class:`~repro.core.recovery.TimeTransferState` (state transfer), and
* any other body — arbitrary compositions of the above in JSON-able
  containers — via a recursive *value* encoding (the STATE body is a dict
  holding a checkpoint; a passive backup's backlog holds whole envelopes).

Layout: a one-byte type tag, then struct-packed fixed fields, then
length-prefixed UTF-8 strings and values.  Integers are little-endian.
A value is a tag byte, then a scalar (none for ``None`` / bools), a
registered body, an envelope, or one JSON chunk — for a container that
holds no message (an application checkpoint) and an int past i64.  An
RPC argument or reply runs no JSON (since ``WIRE_VERSION`` 4).
Protocol modules outside this one register their own body types with
:func:`register_body_codec` (e.g. the primary-backup baseline's conveyed
clock values), keeping the tag space centralized without import cycles.

This format is what actually crosses the socket in live mode — every
envelope a node transmits goes through :mod:`repro.net.wire`, which
frames the output of :func:`encode_envelope`.

The envelope, its header and the first four bodies above are
``NamedTuple``s: immutable by construction, and a live operation decodes
some twenty.  The decoders build each positionally — ``_new(Class,
(fields…))``, which is ``tuple.__new__``, past the keyword ``__new__``
the class generates — where a frozen dataclass paid one
``object.__setattr__`` per field, 45 % of a decode.  To :mod:`json` such
a message is an array like any tuple, so :func:`_pack_json` refuses a
value that holds one.
"""

from __future__ import annotations

import json
import struct
from functools import lru_cache
from sys import intern
from typing import Any, Callable, Dict, Tuple

from ..core.messages import CCSMessage
from ..core.multigroup import GroupClockStamp
from ..core.recovery import TimeTransferState
from ..errors import ReproError
from ..rpc.messages import Invocation, Result
from .envelope import Envelope, MessageHeader, MsgType
from .state_transfer import Checkpoint


class CodecError(ReproError):
    """Encoding or decoding failed."""


# -- primitives ----------------------------------------------------------
#
# Every fixed layout is compiled once, here or beside its codec; the
# module-level ``struct`` functions look their format string up on every
# call.  CI greps for the call-time form.

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_I64X2 = struct.Struct("<qq")
_F64 = struct.Struct("<d")
#: A value's tag byte and its scalar, packed together.
_TAGGED_I64 = struct.Struct("<Bq")
_TAGGED_F64 = struct.Struct("<Bd")
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1

# Built once: ``json.dumps(..., separators=...)`` constructs an encoder
# per call.  Same settings, so the same bytes.
_json_encode = json.JSONEncoder(separators=(",", ":")).encode
_json_decode = json.JSONDecoder().decode

#: What a malformed buffer makes a decoder raise (a short read, bad UTF-8
#: or JSON, an unknown tag, a list as a dict key, nesting past the
#: recursion limit): :func:`decode_envelope` makes each a CodecError.
_MALFORMED = (struct.error, LookupError, ValueError, TypeError, RecursionError)


def _pack_str(value: str) -> bytes:
    data = value.encode("utf-8")
    if len(data) > 0xFFFF:
        raise CodecError(f"string too long ({len(data)} bytes)")
    return _U16.pack(len(data)) + data


def _unpack_str(buffer: bytes, offset: int) -> Tuple[str, int]:
    (length,) = _U16.unpack_from(buffer, offset)
    offset += 2
    end = offset + length
    return buffer[offset:end].decode("utf-8"), end


def _unpack_id(buffer: bytes, offset: int) -> Tuple[str, int]:
    """A node, group or thread identifier: interned, because every frame
    repeats the same few and whatever keeps a decoded message (a
    gateway's replay window, the round-winner history) would otherwise
    keep a fresh copy of each per frame.  (:func:`_unpack_str` inline,
    not called: an envelope reads three of these.)"""
    (length,) = _U16.unpack_from(buffer, offset)
    offset += 2
    end = offset + length
    return intern(buffer[offset:end].decode("utf-8")), end


#: A node, group, thread or method identifier as :func:`_pack_str`
#: returns it, remembered — the encode-side twin of :func:`_unpack_id`:
#: an envelope frame packs five, the same five every time.  Bounded, least
#: recently used out: a gateway may front thousands of client groups.
_pack_id = lru_cache(maxsize=1024)(_pack_str)

#: Builds a message tuple positionally, past the keyword ``__new__`` a
#: ``NamedTuple`` generates: the decoders' one construction idiom.
_new = tuple.__new__


def _holds_record(value: Any) -> bool:
    """Is ``value``, or anything inside it, a tuple *subclass* — a
    ``NamedTuple`` message, not a sequence, whatever ``isinstance(…,
    tuple)`` says?"""
    if isinstance(value, dict):
        return any(map(_holds_record, value.values()))
    if isinstance(value, (list, tuple)):
        return (isinstance(value, tuple) and type(value) is not tuple
                or any(map(_holds_record, value)))
    return False


def _pack_json(value: Any) -> bytes:
    try:
        text = _json_encode(value)
    except (TypeError, ValueError) as exc:
        raise CodecError(f"body not JSON-encodable: {exc}") from exc
    # The encoder writes any tuple as an array, a message class included,
    # and the far side would read back a list: refuse.  (No "[" in the
    # text, no array in the value: most replies skip the scan.)
    if "[" in text and _holds_record(value):
        raise CodecError("body not JSON-encodable: holds a message object")
    data = text.encode("utf-8")
    if len(data) > 0xFFFFFFFF:
        raise CodecError("JSON body too large")
    return _U32.pack(len(data)) + data


def _unpack_json(buffer: bytes, offset: int) -> Tuple[Any, int]:
    (length,) = _U32.unpack_from(buffer, offset)
    offset += 4
    end = offset + length
    return _json_decode(buffer[offset:end].decode("utf-8")), end


# -- body codecs -----------------------------------------------------------

_BODY_TAGS: Dict[type, int] = {}
_BODY_ENCODERS: Dict[int, Tuple[Callable, Callable]] = {}


def _register(tag: int, cls: type, encode: Callable, decode: Callable) -> None:
    _BODY_TAGS[cls] = tag
    _BODY_ENCODERS[tag] = (encode, decode)


#: round, proposed micros, call type, special, covering op id.
_CCS = struct.Struct("<qqB?qq")


def _encode_ccs(body: CCSMessage) -> bytes:
    # The fixed layout is the tuple's own fields after the thread id.
    return _pack_id(body[0]) + _CCS.pack(*body[1:])


def _decode_ccs(buffer: bytes, offset: int) -> Tuple[CCSMessage, int]:
    thread_id, offset = _unpack_id(buffer, offset)
    fields = (thread_id,) + _CCS.unpack_from(buffer, offset)
    return _new(CCSMessage, fields), offset + _CCS.size


def _encode_invocation(body: Invocation) -> bytes:
    method, args = body
    if len(args) > 0xFF:
        raise CodecError(f"{len(args)} arguments (at most 255)")
    return b"".join((_pack_id(method), bytes((len(args),)),
                     *map(_pack_value, args)))


def _decode_invocation(buffer: bytes, offset: int) -> Tuple[Invocation, int]:
    method, offset = _unpack_id(buffer, offset)
    args, offset = _unpack_values(buffer, offset + 1, buffer[offset])
    return _new(Invocation, (method, tuple(args))), offset


def _encode_result(body: Result) -> bytes:
    return _pack_value(body[0]) + _pack_value(body[1])


def _decode_result(buffer: bytes, offset: int) -> Tuple[Result, int]:
    value, offset = _unpack_value(buffer, offset)
    error, offset = _unpack_value(buffer, offset)
    return _new(Result, (value, error)), offset


def _encode_stamp(body: GroupClockStamp) -> bytes:
    return _pack_id(body.group) + _I64.pack(body.micros)


def _decode_stamp(buffer: bytes, offset: int) -> Tuple[GroupClockStamp, int]:
    group, offset = _unpack_id(buffer, offset)
    (micros,) = _I64.unpack_from(buffer, offset)
    return _new(GroupClockStamp, (group, micros)), offset + 8


# -- recursive value encoding --------------------------------------------
#
# Bodies like the STATE response are containers mixing JSON-able data
# with protocol objects (checkpoints, buffered CCS messages, logged
# envelopes).  The value encoding handles those: each node is a one-byte
# value tag, with registered body types embedded by their body tag.

_V_JSON = 0      # one JSON chunk: a message-free container, or a scalar too wide
_V_LIST = 1      # sequence of values (tuples decode as lists)
_V_DICT = 2      # mapping: keys and values both encoded as values
_V_BODY = 3      # a registered body type: body tag + its encoding
_V_ENVELOPE = 4  # a whole envelope, length-prefixed
_V_NONE, _V_FALSE, _V_TRUE = 5, 6, 7
_V_INT = 8       # i64; a wider int goes as a JSON chunk
_V_FLOAT = 9     # IEEE 754 double
_V_STR = 10      # as _pack_str; one it cannot carry goes as a JSON chunk

_NONE_BYTES, _FALSE_BYTES, _TRUE_BYTES, _STR_BYTE, _JSON_BYTE = (
    bytes((tag,)) for tag in (_V_NONE, _V_FALSE, _V_TRUE, _V_STR, _V_JSON))


def _pack_value(value: Any) -> bytes:
    # Exact types: a subclass (an ``IntEnum``) goes as JSON, as it did.
    kind = type(value)
    if kind is int:
        if _I64_MIN <= value <= _I64_MAX:
            return _TAGGED_I64.pack(_V_INT, value)
    elif kind is str:
        try:
            return _STR_BYTE + _pack_str(value)
        except (CodecError, UnicodeEncodeError):
            pass  # over 64 KiB, or a lone surrogate: JSON escapes it
    elif value is None:
        return _NONE_BYTES
    elif kind is bool:
        return _TRUE_BYTES if value else _FALSE_BYTES
    elif kind is float:
        return _TAGGED_F64.pack(_V_FLOAT, value)
    else:
        tag = _BODY_TAGS.get(kind)
        if tag is not None:
            return bytes((_V_BODY, tag)) + _BODY_ENCODERS[tag][0](value)
        if isinstance(value, Envelope):
            data = encode_envelope(value)
            return bytes((_V_ENVELOPE,)) + _U32.pack(len(data)) + data
    try:
        return _JSON_BYTE + _pack_json(value)
    except CodecError:
        pass
    # A plain tuple: a message class is one too, and is never a sequence.
    if kind is tuple or isinstance(value, list):
        return bytes((_V_LIST,)) + _U32.pack(len(value)) + b"".join(
            _pack_value(item) for item in value)
    if isinstance(value, dict):
        return bytes((_V_DICT,)) + _U32.pack(len(value)) + b"".join(
            _pack_value(key) + _pack_value(item) for key, item in value.items())
    raise CodecError(f"value of type {kind.__name__} is not wire-encodable")


def _unpack_value(buffer: bytes, offset: int) -> Tuple[Any, int]:
    vtag = buffer[offset]
    offset += 1
    if vtag == _V_INT:
        return _I64.unpack_from(buffer, offset)[0], offset + 8
    if vtag == _V_NONE:
        return None, offset
    if vtag == _V_STR:
        return _unpack_str(buffer, offset)
    if vtag == _V_JSON:
        return _unpack_json(buffer, offset)
    if vtag == _V_TRUE:
        return True, offset
    if vtag == _V_FALSE:
        return False, offset
    if vtag == _V_FLOAT:
        return _F64.unpack_from(buffer, offset)[0], offset + 8
    if vtag == _V_LIST:
        (count,) = _U32.unpack_from(buffer, offset)
        return _unpack_values(buffer, offset + 4, count)
    if vtag == _V_DICT:
        (count,) = _U32.unpack_from(buffer, offset)
        items, offset = _unpack_values(buffer, offset + 4, 2 * count)
        return dict(zip(items[::2], items[1::2])), offset
    if vtag == _V_BODY:  # an unknown body tag: KeyError, i.e. malformed
        return _BODY_ENCODERS[buffer[offset]][1](buffer, offset + 1)
    if vtag == _V_ENVELOPE:
        (length,) = _U32.unpack_from(buffer, offset)
        offset += 4
        return decode_envelope(buffer[offset:offset + length]), offset + length
    raise CodecError(f"unknown value tag {vtag}")


def _unpack_values(buffer: bytes, offset: int, count: int) -> Tuple[list, int]:
    items = []
    for _ in range(count):
        item, offset = _unpack_value(buffer, offset)
        items.append(item)
    return items, offset


def _encode_checkpoint(body: Checkpoint) -> bytes:
    return (
        _I64X2.pack(body.request_index, body.processed_index)
        + _pack_value(body.app_state)
        + _pack_value(body.time_state)
        + _pack_value(body.extra)
    )


def _decode_checkpoint(buffer: bytes, offset: int) -> Tuple[Checkpoint, int]:
    request_index, processed_index = _I64X2.unpack_from(buffer, offset)
    offset += 16
    app_state, offset = _unpack_value(buffer, offset)
    time_state, offset = _unpack_value(buffer, offset)
    extra, offset = _unpack_value(buffer, offset)
    return (
        Checkpoint(app_state, request_index, time_state, processed_index, extra),
        offset,
    )


def _pack_opt_int(value) -> bytes:
    if value is None:
        return b"\x00"
    return b"\x01" + _I64.pack(value)


def _unpack_opt_int(buffer: bytes, offset: int):
    flag = buffer[offset]
    offset += 1
    if not flag:
        return None, offset
    (value,) = _I64.unpack_from(buffer, offset)
    return value, offset + 8


def _encode_time_state(body: TimeTransferState) -> bytes:
    parts = [_U16.pack(len(body.rounds))]
    for thread_id in sorted(body.rounds):
        parts.append(_pack_str(thread_id))
        parts.append(_I64.pack(body.rounds[thread_id]))
    parts.append(_U16.pack(len(body.accepted)))
    for thread_id in sorted(body.accepted):
        parts.append(_pack_str(thread_id))
        parts.append(_I64.pack(body.accepted[thread_id]))
    parts.append(_U16.pack(len(body.ops)))
    for thread_id in sorted(body.ops):
        op = body.ops[thread_id]
        parts.append(_pack_str(thread_id))
        parts.append(_I64X2.pack(op[0], op[1]))
    parts.append(_U16.pack(len(body.buffered)))
    for thread_id in sorted(body.buffered):
        messages = body.buffered[thread_id]
        parts.append(_pack_str(thread_id))
        parts.append(_U16.pack(len(messages)))
        parts.extend(_encode_ccs(message) for message in messages)
    parts.append(_pack_opt_int(body.last_group_us))
    parts.append(_pack_opt_int(body.causal_floor_us))
    return b"".join(parts)


def _decode_time_state(buffer: bytes, offset: int) -> Tuple[TimeTransferState, int]:
    state = TimeTransferState()
    (count,) = _U16.unpack_from(buffer, offset)
    offset += 2
    for _ in range(count):
        thread_id, offset = _unpack_str(buffer, offset)
        (state.rounds[thread_id],) = _I64.unpack_from(buffer, offset)
        offset += 8
    (count,) = _U16.unpack_from(buffer, offset)
    offset += 2
    for _ in range(count):
        thread_id, offset = _unpack_str(buffer, offset)
        (state.accepted[thread_id],) = _I64.unpack_from(buffer, offset)
        offset += 8
    (count,) = _U16.unpack_from(buffer, offset)
    offset += 2
    for _ in range(count):
        thread_id, offset = _unpack_str(buffer, offset)
        state.ops[thread_id] = _I64X2.unpack_from(buffer, offset)
        offset += 16
    (count,) = _U16.unpack_from(buffer, offset)
    offset += 2
    for _ in range(count):
        thread_id, offset = _unpack_str(buffer, offset)
        (messages,) = _U16.unpack_from(buffer, offset)
        offset += 2
        bucket = state.buffered.setdefault(thread_id, [])
        for _ in range(messages):
            message, offset = _decode_ccs(buffer, offset)
            bucket.append(message)
    state.last_group_us, offset = _unpack_opt_int(buffer, offset)
    state.causal_floor_us, offset = _unpack_opt_int(buffer, offset)
    return state, offset


_register(1, CCSMessage, _encode_ccs, _decode_ccs)
_register(2, Invocation, _encode_invocation, _decode_invocation)
_register(3, Result, _encode_result, _decode_result)
_register(4, GroupClockStamp, _encode_stamp, _decode_stamp)
#: tags 0 and 5: retired (v3's empty and JSON bodies).  Tag 6: any
#: other body, ``None`` included, value-encoded.
_VALUE_TAG = 6
_register(7, Checkpoint, _encode_checkpoint, _decode_checkpoint)
_register(8, TimeTransferState, _encode_time_state, _decode_time_state)


def register_body_codec(tag: int, cls: type, encode: Callable,
                        decode: Callable) -> None:
    """Register a wire codec for an envelope body type.

    For protocol modules the codec cannot import without a cycle (they
    register themselves at import time).  ``tag`` must be unused and >= 16
    — tags below 16 are reserved for this module.
    """
    if tag < 16:
        raise CodecError(f"body tags below 16 are reserved, got {tag}")
    if tag in _BODY_ENCODERS:
        raise CodecError(f"body tag {tag} already registered")
    if cls in _BODY_TAGS:
        raise CodecError(f"{cls.__name__} already has a body codec")
    _register(tag, cls, encode, decode)


_MSG_TYPES = list(MsgType)
_MSG_TYPE_INDEX = {msg_type: index for index, msg_type in enumerate(_MSG_TYPES)}
#: message type index, connection id, sequence number, body tag.
_ENVELOPE = struct.Struct("<BqqB")


# -- envelope codec ------------------------------------------------------------

def encode_envelope(envelope: Envelope) -> bytes:
    """Serialize an envelope (header + sender + tagged body)."""
    header, sender, body = envelope
    tag = _BODY_TAGS.get(type(body))
    if tag is not None:
        payload = _BODY_ENCODERS[tag][0](body)
    else:
        tag = _VALUE_TAG
        payload = _pack_value(body)
    return b"".join((
        _ENVELOPE.pack(_MSG_TYPE_INDEX[header.msg_type],
                       header.conn_id, header.msg_seq_num, tag),
        _pack_id(header.src_grp),
        _pack_id(header.dst_grp),
        _pack_id(sender),
        payload,
    ))


def decode_envelope(buffer: bytes, offset: int = 0) -> Envelope:
    """Deserialize :func:`encode_envelope` output, which must run from
    ``offset`` to the end of ``buffer`` (decoded in place, no copy)."""
    try:
        type_index, conn_id, msg_seq_num, tag = _ENVELOPE.unpack_from(
            buffer, offset)
        offset += _ENVELOPE.size
        src_grp, offset = _unpack_id(buffer, offset)
        dst_grp, offset = _unpack_id(buffer, offset)
        sender, offset = _unpack_id(buffer, offset)
        if tag == _VALUE_TAG:
            body, offset = _unpack_value(buffer, offset)
        else:  # an unknown body tag: KeyError, i.e. malformed
            body, offset = _BODY_ENCODERS[tag][1](buffer, offset)
        if offset != len(buffer):
            raise CodecError(
                f"envelope has {len(buffer) - offset} trailing bytes"
            )
        header = _new(MessageHeader, (
            _MSG_TYPES[type_index], src_grp, dst_grp, conn_id, msg_seq_num))
        return _new(Envelope, (header, sender, body))
    except _MALFORMED as exc:
        raise CodecError(f"malformed envelope: {exc}") from exc
