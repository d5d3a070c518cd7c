"""Property tests for the live wire format (framing + payload codec).

Whatever the live transport can encode must decode back to an equal
value, and no truncated or corrupted frame may crash the decoder — a
daemon's UDP port is fed by the network, not by friendly code.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CCSMessage, GroupClockStamp
from repro.core.recovery import TimeTransferState
import repro.baselines.primary_backup  # noqa: F401  (registers body tag 16)
from repro.net.wire import (
    Batch,
    FrameError,
    HEADER_SIZE,
    MAGIC,
    WIRE_VERSION,
    decode_frame_ex,
    decode_payload,
    encode_payload,
    frame,
    unframe_ex,
)
from repro.replication import MsgType, make_envelope
from repro.replication.codec import (
    _BODY_ENCODERS,
    _ENVELOPE,
    CodecError,
    _pack_id,
    _pack_str,
    decode_envelope,
    encode_envelope,
)
from repro.replication.state_transfer import Checkpoint
from repro.rpc import Invocation, Result
from repro.shard.summary import ShardSummary
from repro.totem.messages import (
    JoinMessage,
    LostMessage,
    RegularMessage,
    RegularToken,
    RingBeacon,
    RingId,
)
from support import classed

identifiers = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=16,
)
seqs = st.integers(min_value=0, max_value=2**40)
ring_ids = st.builds(RingId, seq=seqs, representative=identifiers)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=24),
)

envelopes = st.one_of(
    st.builds(
        lambda src, dst, conn, seq, sender, method, args: make_envelope(
            MsgType.REQUEST, src, dst, conn, seq, sender,
            body=Invocation(method, tuple(args)),
        ),
        identifiers, identifiers, seqs, seqs, identifiers, identifiers,
        st.lists(json_scalars, max_size=4),
    ),
    st.builds(
        lambda src, seq, sender, value: make_envelope(
            MsgType.REPLY, src, src, 1, seq, sender, body=Result(value=value),
        ),
        identifiers, seqs, identifiers, json_scalars,
    ),
    st.builds(
        lambda grp, seq, sender, thread, rnd, micros, special, covers:
        make_envelope(
            MsgType.CCS, grp, grp, 0, seq, sender,
            body=CCSMessage(thread, rnd, micros, 1, special=special,
                            covers_req=covers[0], covers_seq=covers[1]),
        ),
        identifiers, seqs, identifiers, identifiers, seqs,
        st.integers(min_value=0, max_value=2**60),
        st.booleans(),
        # (0, 0) is the legacy "no covering point" encoding.
        st.one_of(st.just((0, 0)),
                  st.tuples(st.integers(min_value=1, max_value=2**40),
                            st.integers(min_value=1, max_value=2**20))),
    ),
    st.builds(
        lambda grp, seq, sender, state: make_envelope(
            MsgType.GET_STATE, grp, grp, 0, seq, sender, body=state,
        ),
        identifiers, seqs, identifiers,
        st.builds(
            TimeTransferState,
            rounds=st.dictionaries(identifiers, seqs, max_size=3),
            accepted=st.dictionaries(identifiers, seqs, max_size=3),
            ops=st.dictionaries(
                identifiers,
                st.tuples(st.integers(min_value=0, max_value=2**40),
                          st.integers(min_value=0, max_value=2**20)),
                max_size=3,
            ),
            last_group_us=st.one_of(
                st.none(), st.integers(min_value=0, max_value=2**60)),
            causal_floor_us=st.one_of(
                st.none(), st.integers(min_value=0, max_value=2**60)),
        ),
    ),
)

payloads = st.one_of(
    envelopes,
    st.builds(
        RegularMessage,
        sender=identifiers, ring_id=ring_ids, seq=seqs, payload=envelopes,
    ),
    st.builds(
        RegularToken,
        ring_id=ring_ids, token_seq=seqs, seq=seqs, aru=seqs,
        aru_id=st.one_of(st.none(), identifiers),
        rtr=st.lists(seqs, max_size=5).map(tuple),
    ),
    st.builds(
        JoinMessage,
        sender=identifiers,
        proc_set=st.frozensets(identifiers, max_size=4),
        fail_set=st.frozensets(identifiers, max_size=4),
        ring_seq=seqs,
    ),
    st.builds(
        RingBeacon,
        sender=identifiers, ring_id=ring_ids,
    ),
    st.just(LostMessage()),
    st.builds(
        ShardSummary,
        shard=st.integers(min_value=0, max_value=2**16),
        group=identifiers,
        value_us=st.integers(min_value=-(2**60), max_value=2**60),
        offset_us=st.integers(min_value=-(2**60), max_value=2**60),
        round_seq=seqs,
        error_us=st.integers(min_value=0, max_value=2**40),
        signature=st.one_of(st.just(""), identifiers),
    ),
)

#: What a token visit hands the live port: two or more payloads, none a batch.
batches = st.lists(payloads, min_size=2, max_size=4).map(Batch)


class TestRoundTrip:
    @settings(max_examples=150)
    @given(src=identifiers, payload=st.one_of(payloads, batches))
    def test_encode_frame_decode_identity(self, src, payload):
        decoded_src, decoded, _trace = decode_frame_ex(
            frame(src, encode_payload(payload)))
        assert decoded_src == src
        assert decoded == payload
        assert classed(decoded) == classed(payload)

    @settings(max_examples=80)
    @given(payload=st.one_of(payloads, batches))
    def test_payload_decode_consumes_everything(self, payload):
        data = encode_payload(payload)
        decoded, offset = decode_payload(data, 0)
        assert decoded == payload
        assert offset == len(data)


#: One of each message class the value encoding carries (the registered
#: bodies and whole envelopes).  Each is a tuple, which :mod:`json` would
#: write as an array if the encoder let it.
NESTABLE = [
    CCSMessage("main", 1, 2, 3),
    CCSMessage("aux", 42, 2**50, 1, special=True, covers_req=7, covers_seq=2),
    Invocation("gettimeofday", (5, "x")),
    Invocation("noargs"),
    Result(value=5),
    Result(error="ValueError: boom"),
    GroupClockStamp("alpha", 1_790_000_000_000_000),
    make_envelope(MsgType.REQUEST, "client.c1", "svc", 8, 9, "c1",
                  body=Invocation("m", (1,))),
]
#: Message classes with no body codec: refused, never shipped as arrays.
UNREGISTERED = [RingId(4, "n0"), RingBeacon(RingId(4, "n0"), "n0"),
                RegularToken(RingId(4, "n0"), 1, 0, 0, None),
                ShardSummary(1, "shard1", 2, 3, 4, 5)]


def _through_a_state_envelope(app_state, time_state=None, extra=None):
    checkpoint = Checkpoint(app_state, 12, time_state, 11, extra)
    state = make_envelope(MsgType.STATE, "svc", "svc", 0, 3, "n2",
                          body={"target": "n1", "checkpoint": checkpoint})
    _src, decoded, _trace = decode_frame_ex(
        frame("n2", encode_payload(RegularMessage(RingId(4, "n0"), 7, "n2", state))))
    assert classed(decoded.payload) == classed(state)
    return decoded.payload.body["checkpoint"]


class TestMessagesNestedInContainers:
    """A message inside a list or a dict inside a checkpoint comes back
    as its own class — not as the JSON array a tuple looks like."""

    @pytest.mark.parametrize("message", NESTABLE, ids=lambda m: type(m).__name__)
    def test_in_a_list_and_in_a_dict(self, message):
        decoded = _through_a_state_envelope(
            {"pending": [message, 1, "two"], "last": message, "n": 3},
            time_state={"deep": {"er": [[message]]}},
            extra=[message])
        for found in (decoded.app_state["pending"][0], decoded.app_state["last"],
                      decoded.time_state["deep"]["er"][0][0], decoded.extra[0]):
            assert type(found) is type(message)
            assert found == message
        assert decoded.app_state["pending"][1:] == [1, "two"]

    def test_the_case_the_issue_met(self):
        decoded = _through_a_state_envelope(
            {"pending": [CCSMessage("main", 1, 2, 3)], "last": Result(value=5)})
        assert decoded.app_state == {
            "pending": [CCSMessage("main", 1, 2, 3)], "last": Result(value=5)}
        assert type(decoded.app_state["pending"][0]) is CCSMessage
        assert type(decoded.app_state["last"]) is Result

    def test_plain_json_state_is_still_one_json_chunk(self):
        """Same bytes: a checkpoint with no message in it is not walked."""
        plain = {"calls": 12, "items": [1, [2, 3], {"k": None}]}
        chunk = b'{"calls":12,"items":[1,[2,3],{"k":null}]}'
        body = {"target": "n1", "checkpoint": Checkpoint(plain, 1, None, 1, None)}
        data = encode_envelope(make_envelope(MsgType.STATE, "g", "g", 0, 1, "n1", body=body))
        assert b"\x00" + len(chunk).to_bytes(4, "little") + chunk in data
        assert decode_envelope(data).body["checkpoint"].app_state == plain

    @pytest.mark.parametrize("message", UNREGISTERED, ids=lambda m: type(m).__name__)
    def test_a_class_without_a_codec_is_refused_not_flattened(self, message):
        for body in (message, [message], {"held": (1, message)},
                     Result(value={"r": [message]}), Invocation("m", (message,))):
            with pytest.raises(CodecError):
                encode_envelope(make_envelope(MsgType.APP, "g", "g", 0, 1, "n1", body=body))
        # The transport's last-resort JSON payload: the same refusal, at
        # the port, under the reason the rejection counters know.
        for payload in ([message], {"held": (1, message)}):
            with pytest.raises(FrameError) as refused:
                encode_payload(payload)
            assert refused.value.reason == "payload"

    def test_a_bare_unregistered_class_is_no_payload(self):
        with pytest.raises(FrameError) as refused:
            encode_payload(RingId(4, "n0"))
        assert refused.value.reason == "payload"


class TestPackedIdentifiers:
    def test_the_memo_is_bounded_and_returns_what_pack_str_would(self):
        bound = _pack_id.cache_info().maxsize
        assert bound is not None and bound <= 4096
        request = make_envelope(MsgType.REQUEST, "client.b7", "svc", 8, 1234, "b7",
                                body=Invocation("gettimeofday", (1,)))
        before = encode_payload(request)
        # A gateway fronting 8 192 client groups: every name goes through.
        for client in range(8192):
            name = f"client.c{client}"
            assert _pack_id(name) == _pack_str(name)
        assert _pack_id.cache_info().currsize == bound
        assert encode_payload(request) == before
        assert decode_payload(before)[0] == request
        for odd in ("", "é" * 40, "x" * 0xFFFF):
            assert _pack_id(odd) == _pack_str(odd)
        with pytest.raises(CodecError):
            _pack_id("x" * 0x10000)


class TestRejection:
    @settings(max_examples=80)
    @given(src=identifiers, payload=payloads, data=st.data())
    def test_truncated_frame_rejected(self, src, payload, data):
        encoded = frame(src, encode_payload(payload))
        cut = data.draw(st.integers(min_value=0, max_value=len(encoded) - 1))
        try:
            unframe_ex(encoded[:cut])
        except FrameError:
            pass  # rejection is the expected outcome
        else:
            raise AssertionError("truncated frame accepted")

    @settings(max_examples=100)
    @given(junk=st.binary(max_size=64))
    def test_garbage_never_crashes_decoder(self, junk):
        try:
            decode_frame_ex(junk)
        except FrameError:
            pass

    @settings(max_examples=60)
    @given(src=identifiers, payload=payloads, extra=st.binary(min_size=1, max_size=8))
    def test_trailing_garbage_rejected(self, src, payload, extra):
        encoded = frame(src, encode_payload(payload))
        try:
            decode_frame_ex(encoded + extra)
        except FrameError:
            pass
        else:
            raise AssertionError("frame with trailing bytes accepted")

    @settings(max_examples=60)
    @given(src=identifiers, payload=payloads, flip=st.data())
    def test_header_corruption_rejected(self, src, payload, flip):
        encoded = bytearray(frame(src, encode_payload(payload)))
        index = flip.draw(st.integers(min_value=0, max_value=HEADER_SIZE - 1))
        delta = flip.draw(st.integers(min_value=1, max_value=255))
        encoded[index] = (encoded[index] + delta) % 256
        try:
            decoded_src, decoded, _trace = decode_frame_ex(bytes(encoded))
        except FrameError:
            return
        # A length-byte flip that still parses must not change content
        # silently in the magic/version bytes.
        assert encoded[:2] == MAGIC
        assert encoded[2] == WIRE_VERSION
        assert (decoded_src, decoded) == (src, payload)


def _well_framed(body_tag, body):
    """A valid frame around a valid envelope header, then ``body`` under
    ``body_tag`` as it came off the wire."""
    header = _ENVELOPE.pack(0, 8, 1234, body_tag)
    return frame("n1", b"\x00" + header + _pack_str("client.b7")
                 + _pack_str("timesvc") + _pack_str("b7") + body)


def _ordered_frame(payload):
    """An ordered-message frame carrying ``payload`` bytes verbatim."""
    head = encode_payload(RegularMessage(RingId(4, "n0"), 7, "n0", LostMessage()))
    return frame("n1", head[:-1] + payload)  # the LostMessage kind byte out


#: Every body tag, the retired v3 empty and JSON tags (0, 5) and one
#: nobody took.
BODY_TAGS = sorted(set(_BODY_ENCODERS) | {0, 5, 15})
#: Body bytes that start like a value: a tag of the value encoding
#: (0-10), or one past it, then anything.
value_like = st.builds(lambda tag, rest: bytes([tag]) + rest,
                       st.integers(min_value=0, max_value=11),
                       st.binary(max_size=48))


def _batch_body(items, count=None):
    """A batch's bytes after its kind: ``count`` (default: how many items
    there are), then each ``(payload bytes, length error)`` as a length
    off by that error and the bytes."""
    count = len(items) if count is None else count
    return count.to_bytes(2, "little") + b"".join(
        max(len(data) + error, 0).to_bytes(4, "little") + data for data, error in items)


_BEACON = encode_payload(RingBeacon(RingId(4, "n0"), "n0"))
_BATCH = encode_payload(Batch((RingBeacon(RingId(4, "n0"), "n0"),) * 2))


class TestMalformedBodies:
    """A datagram whose frame and envelope header are sound but whose
    body is not must be one :class:`FrameError` with reason
    ``payload`` — counted by the port, which then reads on — never a
    ``KeyError`` or ``TypeError`` out of a body decoder."""

    @settings(max_examples=400)
    @given(tag=st.sampled_from(BODY_TAGS),
           body=st.one_of(st.binary(max_size=64), value_like))
    # What crashed v3's decoders (a Result of {} or [1], Invocation
    # arguments 5), in v4's encoding: each must decode or be rejected.
    @example(tag=3, body=b"\x00\x02\x00\x00\x00{}")
    @example(tag=3, body=b"\x00\x03\x00\x00\x00[1]\x05")
    @example(tag=2, body=b"\x01\x00m\x01\x00\x01\x00\x00\x005")
    # A dict whose key decodes to a list: unhashable.
    @example(tag=6, body=b"\x02\x01\x00\x00\x00\x00\x03\x00\x00\x00[1]\x05")
    @example(tag=6, body=b"\x02\x01\x00\x00\x00\x01\x00\x00\x00\x00\x05")
    # A list nested past the interpreter's recursion limit.
    @example(tag=6, body=b"\x01\x01\x00\x00\x00" * 5000)
    def test_any_body_under_any_tag_is_a_frame_error(self, tag, body):
        try:
            decode_frame_ex(_well_framed(tag, body))
        except FrameError as exc:
            assert exc.reason in ("payload", "trailing")

    @settings(max_examples=200)
    @given(body=st.one_of(st.binary(max_size=64), value_like))
    def test_any_value_payload_is_a_frame_error(self, body):
        """The same for a payload of the value kind (6), bare and
        inside an ordered message."""
        for data in (frame("n1", b"\x06" + body),
                     _ordered_frame(b"\x06" + body)):
            try:
                decode_frame_ex(data)
            except FrameError as exc:
                assert exc.reason in ("payload", "trailing")

    def test_the_decoder_says_which_body_failed(self):
        with pytest.raises(FrameError) as rejected:
            decode_frame_ex(_well_framed(
                6, b"\x02\x01\x00\x00\x00\x00\x03\x00\x00\x00[1]\x05"))
        assert rejected.value.reason == "payload"
        assert "unhashable" in str(rejected.value)

    @settings(max_examples=300)
    @given(body=st.one_of(st.binary(max_size=96), st.builds(
        lambda count, items: _batch_body(items, count),
        st.integers(min_value=0, max_value=4),
        st.lists(st.tuples(st.one_of(payloads.map(encode_payload), st.binary(max_size=24)),
                           st.integers(min_value=-2, max_value=2)),
                 max_size=4))))
    def test_any_bytes_after_the_batch_kind_are_a_frame_error(self, body):
        """Kind 9 (a batch) is read only as far as its count and lengths
        say: whatever follows the kind byte decodes or is rejected, and
        a rejection is a :class:`FrameError`."""
        try:
            decode_frame_ex(frame("n1", b"\x09" + body))
        except FrameError as exc:
            assert exc.reason in ("payload", "trailing")

    @pytest.mark.parametrize("body, reason, says", [
        (_batch_body([(_BEACON, 0), (_BATCH, 0)]), "payload", "nested batch"),
        (_batch_body([(_BEACON, 0)]), "payload", "batch of 1 items"),
        (_batch_body([]), "payload", "batch of 0 items"),
        (_batch_body([(_BEACON, 0), (_BEACON, 1)]), "payload", "overruns"),
        (_batch_body([(_BEACON + b"\x00", 0), (_BEACON, 0)]), "trailing",
         "trailing bytes in a batch item"),
        (_batch_body([(_BEACON, 0), (_BEACON, 0)]) + b"\x00", "trailing",
         "trailing garbage"),
    ], ids=["nested", "count-1", "count-0", "overrun", "item-trailing", "batch-trailing"])
    def test_a_malformed_batch_says_what_is_wrong(self, body, reason, says):
        with pytest.raises(FrameError, match=says) as rejected:
            decode_frame_ex(frame("n1", b"\x09" + body))
        assert rejected.value.reason == reason
