"""Round-trip tests for the binary wire codec."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CCSMessage, GroupClockStamp
from repro.replication import MsgType, make_envelope
from repro.replication.codec import (
    CodecError,
    decode_envelope,
    encode_envelope,
)
from repro.rpc import Invocation, Result

identifiers = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1,
    max_size=32,
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**40), max_value=2**40),
    st.text(max_size=40),
)


def roundtrip(envelope):
    return decode_envelope(encode_envelope(envelope))


class TestRoundTrips:
    def test_ccs_envelope(self):
        env = make_envelope(
            MsgType.CCS, "grp", "grp", 0, 17, "n2",
            body=CCSMessage("0:main", 17, 1_234_567, 1, special=True),
        )
        assert roundtrip(env) == env

    def test_invocation_envelope(self):
        env = make_envelope(
            MsgType.REQUEST, "cli", "srv", 3, 9, "n0",
            body=Invocation("get_time", (1, "x", None)),
        )
        assert roundtrip(env) == env

    def test_result_envelope(self):
        env = make_envelope(
            MsgType.REPLY, "srv", "cli", 3, 9, "n1",
            body=Result(value={"sec": 5, "usec": 12}),
        )
        assert roundtrip(env) == env

    def test_error_result(self):
        env = make_envelope(
            MsgType.REPLY, "srv", "cli", 1, 1, "n1",
            body=Result(error="TypeError: nope"),
        )
        decoded = roundtrip(env)
        assert not decoded.body.ok
        assert decoded.body.error == "TypeError: nope"

    def test_stamp_envelope(self):
        env = make_envelope(
            MsgType.APP, "a", "b", 0, 0, "n3",
            body=GroupClockStamp("alpha", 987654321),
        )
        assert roundtrip(env) == env

    def test_none_body(self):
        env = make_envelope(MsgType.GROUP_JOIN, "g", "g", 0, 0, "n1")
        assert roundtrip(env) == env

    def test_json_body(self):
        env = make_envelope(
            MsgType.VIEW_SYNC, "g", "g", 0, 0, "n1",
            body=["n1", "n2", "n3"],
        )
        assert roundtrip(env) == env

    @settings(max_examples=80)
    @given(
        msg_type=st.sampled_from(list(MsgType)),
        src=identifiers,
        dst=identifiers,
        conn=st.integers(min_value=0, max_value=2**40),
        seq=st.integers(min_value=0, max_value=2**40),
        sender=identifiers,
        thread=identifiers,
        round_number=st.integers(min_value=0, max_value=2**40),
        micros=st.integers(min_value=0, max_value=2**60),
        call=st.integers(min_value=1, max_value=3),
    )
    def test_ccs_property_roundtrip(
        self, msg_type, src, dst, conn, seq, sender, thread,
        round_number, micros, call,
    ):
        env = make_envelope(
            msg_type, src, dst, conn, seq, sender,
            body=CCSMessage(thread, round_number, micros, call),
        )
        assert roundtrip(env) == env

    @settings(max_examples=60)
    @given(
        method=identifiers,
        args=st.lists(json_scalars, max_size=6),
    )
    def test_invocation_property_roundtrip(self, method, args):
        env = make_envelope(
            MsgType.REQUEST, "c", "s", 1, 1, "n0",
            body=Invocation(method, tuple(args)),
        )
        assert roundtrip(env) == env


#: What a caller could hand an RPC as an argument or a result: scalars
#: at and past the i64 edges, floats with -0.0 and the non-finite ones,
#: any text, and lists, tuples and dicts of them (int keys included).
json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
        st.sampled_from([2**63 - 1, -(2**63 - 1), -(2**63), 2**63,
                         -(2**63) - 1, -0.0, 0.0, 1.0, True, 1, "é∆😀"]),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
        st.dictionaries(st.integers(-3, 3), children, max_size=3),
    ),
    max_leaves=12,
)


class TestWhatACallerSees:
    """Since v4 an RPC argument or result is value-encoded, not one JSON
    text: only the bytes changed.  A decoded value is what v3's
    ``json.loads(json.dumps(v))`` gave — a tuple comes back a list, a
    dict's int keys strings, ``True`` stays ``True`` and ``1`` stays
    ``1``; ``repr`` tells each of those apart, and -0.0 from 0.0."""

    @settings(max_examples=300)
    @given(value=json_values)
    @example(value="x" * 70_000)   # past _pack_str's 64 KiB
    @example(value="\ud800")       # a lone surrogate: no UTF-8 for it
    @example(value=10**40)
    def test_result_and_argument_decode_as_json_did(self, value):
        expected = repr(json.loads(json.dumps(value)))
        reply = make_envelope(MsgType.REPLY, "srv", "cli", 1, 1, "n1",
                              body=Result(value=value))
        request = make_envelope(MsgType.REQUEST, "cli", "srv", 1, 1, "n0",
                                body=Invocation("m", (value,)))
        assert repr(roundtrip(reply).body.value) == expected
        assert repr(roundtrip(request).body.args) == f"({expected},)"


class TestErrors:
    def test_unencodable_body_rejected(self):
        env = make_envelope(
            MsgType.APP, "g", "g", 0, 0, "n1", body=object()
        )
        with pytest.raises(CodecError, match="not wire-encodable"):
            encode_envelope(env)

    def test_malformed_buffer_rejected(self):
        with pytest.raises(CodecError, match="malformed"):
            decode_envelope(b"\x01\x02")

    def test_truncated_buffer_rejected(self):
        env = make_envelope(
            MsgType.CCS, "g", "g", 0, 1, "n1",
            body=CCSMessage("t", 1, 2, 3),
        )
        data = encode_envelope(env)
        with pytest.raises(CodecError):
            decode_envelope(data[: len(data) // 2])


class TestSizeEstimates:
    def test_estimates_in_right_ballpark(self):
        """The simulation's wire_size() estimates should be within a
        small factor of the real encoded size for typical messages."""
        samples = [
            make_envelope(
                MsgType.CCS, "timesvc", "timesvc", 0, 42, "n2",
                body=CCSMessage("0:main", 42, 5_851_170, 1),
            ),
            make_envelope(
                MsgType.REQUEST, "client.n0", "timesvc", 1, 7, "n0",
                body=Invocation("get_time", ()),
            ),
            make_envelope(
                MsgType.REPLY, "timesvc", "client.n0", 1, 7, "n1",
                body=Result(value=[5, 851170]),
            ),
        ]
        for env in samples:
            estimate = env.wire_size()
            actual = len(encode_envelope(env))
            assert 0.25 <= actual / estimate <= 4.0, (env, estimate, actual)
