"""Property tests for the live wire format (framing + payload codec).

Whatever the live transport can encode must decode back to an equal
value, and no truncated or corrupted frame may crash the decoder — a
daemon's UDP port is fed by the network, not by friendly code.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CCSMessage
from repro.core.recovery import TimeTransferState
from repro.net.wire import (
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


class TestRoundTrip:
    @settings(max_examples=150)
    @given(src=identifiers, payload=payloads)
    def test_encode_frame_decode_identity(self, src, payload):
        decoded_src, decoded, _trace = decode_frame_ex(
            frame(src, encode_payload(payload)))
        assert decoded_src == src
        assert decoded == payload

    @settings(max_examples=80)
    @given(payload=payloads)
    def test_payload_decode_consumes_everything(self, payload):
        data = encode_payload(payload)
        decoded, offset = decode_payload(data, 0)
        assert decoded == payload
        assert offset == len(data)


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
