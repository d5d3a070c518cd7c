"""Every wire-carried message class is an immutable tuple: one table.

The codec builds some twenty of these per live operation, so they are
``NamedTuple``s — immutable by construction, built positionally by the
decoders — and no longer frozen dataclasses.  What the rest of the tree
relied on from the dataclasses is pinned here, class by class.
"""

import pytest

from repro.chaos.byzantine import _bias_ccs
from repro.core.messages import CCSMessage
from repro.core.multigroup import GroupClockStamp
from repro.replication.envelope import Envelope, MessageHeader, MsgType, make_envelope
from repro.rpc.messages import Invocation, Result
from repro.shard.summary import ShardSummary
from repro.totem.messages import (
    ConfigurationChange,
    JoinMessage,
    RegularMessage,
    RegularToken,
    RingBeacon,
    RingId,
)
from repro.trace import TraceContext

RING = RingId(4, "n0")
HEADER = MessageHeader(MsgType.REQUEST, "client.c1", "svc", 8, 1234)

#: class -> every field by keyword, in declaration order.
TABLE = {
    MessageHeader: dict(msg_type=MsgType.REQUEST, src_grp="client.c1",
                        dst_grp="svc", conn_id=8, msg_seq_num=1234),
    Envelope: dict(header=HEADER, sender="n1", body=Invocation("m")),
    CCSMessage: dict(thread_id="main", round_number=7, proposed_micros=99,
                     call_type_id=1, special=True, covers_req=3,
                     covers_seq=2),
    Invocation: dict(method="gettimeofday", args=(1, "x")),
    Result: dict(value={"micros": 5}, error="boom"),
    GroupClockStamp: dict(group="alpha", micros=77),
    RingId: dict(seq=4, representative="n0"),
    RegularMessage: dict(ring_id=RING, seq=9, sender="n1", payload="x",
                         retransmission=True),
    RegularToken: dict(ring_id=RING, token_seq=5, seq=9, aru=8,
                       aru_id="n2", rtr=(3, 4)),
    JoinMessage: dict(sender="n0", proc_set=frozenset({"n0", "n1"}),
                      fail_set=frozenset(), ring_seq=3),
    RingBeacon: dict(ring_id=RING, sender="n0"),
    ConfigurationChange: dict(ring_id=RING, members=("n0", "n1"),
                              joined=("n1",), departed=(),
                              is_primary=True),
    ShardSummary: dict(shard=1, group="shard1", value_us=123, offset_us=45,
                       round_seq=6, error_us=7, signature="ab"),
    TraceContext: dict(trace_id="00ff", parent="gw.n0"),
}

DEFAULTS = {
    Envelope: dict(body=None),
    CCSMessage: dict(special=False, covers_req=0, covers_seq=0),
    Invocation: dict(args=()),
    Result: dict(value=None, error=None),
    RegularMessage: dict(retransmission=False),
    RegularToken: dict(rtr=()),
    ShardSummary: dict(signature=""),
    TraceContext: dict(parent=""),
}

CLASSES = pytest.mark.parametrize("cls", list(TABLE), ids=lambda c: c.__name__)


@CLASSES
def test_is_a_tuple_and_no_frozen_dataclass(cls):
    assert issubclass(cls, tuple)
    assert not hasattr(cls, "__dataclass_fields__")
    assert cls._fields == tuple(TABLE[cls])


@CLASSES
def test_setting_any_field_raises(cls):
    message = cls(**TABLE[cls])
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(message, name, None)
    with pytest.raises(AttributeError):
        message.not_a_field = 1  # no instance __dict__ either


@CLASSES
def test_keyword_and_positional_construction_agree(cls):
    fields = TABLE[cls]
    by_keyword = cls(**fields)
    by_position = cls(*fields.values())
    assert by_keyword == by_position
    assert hash_or_none(by_keyword) == hash_or_none(by_position)
    assert [getattr(by_position, name) for name in fields] == list(fields.values())
    assert tuple.__new__(cls, tuple(fields.values())) == by_keyword  # the codec's form


@CLASSES
def test_a_different_field_makes_a_different_message(cls):
    fields = TABLE[cls]
    message = cls(**fields)
    for name in fields:
        other = message._replace(**{name: "something else"})
        assert other != message
        assert getattr(message, name) == fields[name]  # the original is untouched
        assert type(other) is cls


@CLASSES
def test_defaults_are_unchanged(cls):
    expected = DEFAULTS.get(cls, {})
    assert cls._field_defaults == expected
    required = [value for name, value in TABLE[cls].items() if name not in expected]
    message = cls(*required)
    for name, value in expected.items():
        assert getattr(message, name) == value
        assert type(getattr(message, name)) is type(value)
    if required:
        with pytest.raises(TypeError):
            cls(*required[:-1])  # a required field short


def hash_or_none(message):
    try:
        return hash(message)
    except TypeError:  # a field holds a dict (Result.value above)
        return None


def test_the_documented_short_forms():
    assert Result() == Result(None, None) and Result().ok
    assert not Result(error="x").ok
    assert Invocation("m") == Invocation("m", ())
    assert CCSMessage("main", 1, 2, 3) == CCSMessage(
        "main", 1, 2, 3, special=False, covers_req=0, covers_seq=0)
    assert CCSMessage("main", 1, 2, 3, covers_req=5, covers_seq=6).covers == (5, 6)
    assert RegularToken(RING, 1, 0, 0, None) == RegularToken(RING, 1, 0, 0, None, rtr=())
    assert HEADER.message_id == ("client.c1", "svc", 8, 1234)
    assert make_envelope(MsgType.REQUEST, "client.c1", "svc", 8, 1234, "n1") == Envelope(
        HEADER, "n1")
    # A request and its replies name one operation.
    assert HEADER.op_key == ("svc", "client.c1", 8, 1234)
    assert make_envelope(MsgType.REPLY, "svc", "client.c1", 8, 1234,
                         "n0").header.op_key == HEADER.op_key


class TestRingId:
    def test_orders_by_sequence_then_representative(self):
        ids = [RingId(5, "n0"), RingId(4, "n2"), RingId(4, "n1")]
        assert sorted(ids) == [RingId(4, "n1"), RingId(4, "n2"), RingId(5, "n0")]
        assert RingId(4, "n9") < RingId(5, "n0")
        assert max(ids) == RingId(5, "n0")

    def test_is_a_dictionary_key(self):
        seen = {RingId(4, "n0"): "a"}
        seen[RingId(4, "n0")] = "b"
        assert seen == {RingId(4, "n0"): "b"}
        assert RingId(4, "n0") != RingId(4, "n1")
        assert str(RingId(4, "n0")) == "ring(4@n0)"


class TestCopiesLeaveTheOriginal:
    def test_bias_returns_new_objects(self):
        ccs = CCSMessage("main", 7, 1_000, 1)
        envelope = make_envelope(MsgType.CCS, "svc", "svc", 0, 7, "n1", body=ccs)
        message = RegularMessage(RING, 9, "n1", envelope)
        biased = _bias_ccs(message, 250)
        assert biased is not message and type(biased) is RegularMessage
        assert biased.payload.body.proposed_micros == 1_250
        assert biased.payload.body._replace(proposed_micros=1_000) == ccs
        assert message.payload is envelope and envelope.body is ccs
        assert ccs.proposed_micros == 1_000
        assert _bias_ccs(RegularMessage(RING, 9, "n1", "opaque"), 250).payload == "opaque"

    def test_retransmission_flag_is_set_on_a_copy(self):
        message = RegularMessage(RING, 9, "n1", "x")
        again = message._replace(retransmission=True)
        assert again.retransmission and not message.retransmission
        assert again[:4] == message[:4]

    def test_signing_a_summary_returns_a_copy(self):
        summary = ShardSummary(1, "shard1", 123, 45, 6, 7)
        signed = summary.sign("secret")
        assert summary.signature == "" and signed.signature
        assert signed.verify("secret") and signed[:6] == summary[:6]
