"""Golden bytes of the live wire format (``WIRE_VERSION`` 4).

The hex strings were recorded when RPC arguments and results moved onto
the value encoding's scalar tags (v4), and pin that no later change
moves a byte unannounced: a daemon of any commit since decodes the
others' frames.  The v3 strings they replaced are kept in
``wire_golden_v3.py``, and every one of them must be rejected for its
version.  Round-trip *properties* live in
``tests/properties/test_wire_roundtrip.py``; this file pins one concrete
frame per payload kind.  A deliberate format change bumps
``WIRE_VERSION`` and re-records every string here.
"""

import pytest

from repro.core.messages import CCSMessage
from repro.core.recovery import TimeTransferState
from repro.net.auth import WireAuthenticator
from repro.errors import FrameError
from repro.net.wire import HEADER_SIZE, WIRE_VERSION, Batch, decode_frame_ex, encode_frame
from repro.replication.envelope import MsgType, make_envelope
from repro.replication.state_transfer import Checkpoint
from repro.rpc.messages import Invocation, Result
from repro.shard.summary import ShardSummary
from repro.totem.messages import (
    CommitMemberInfo,
    CommitToken,
    JoinMessage,
    LostMessage,
    RegularMessage,
    RegularToken,
    RingBeacon,
    RingId,
)
from repro.trace import TraceContext
from support import classed

from .wire_golden_v3 import GOLDEN_V3

GROUP = "timesvc"
RING = RingId(4, "n0")
NOW_US = 1_790_000_000_123_456
TRACE = TraceContext("00ab00ab00ab00ab", "gw.n0")


def _authenticator() -> WireAuthenticator:
    """A fixed key; a fresh instance signs with nonce 1, so the MAC of
    the first frame is deterministic."""
    return WireAuthenticator(bytes(range(32)), key_id=3)


def _cases():
    """name -> (payload, trace, signed).  The first four are the
    payloads of ``bench/micro.py``."""
    request = make_envelope(
        MsgType.REQUEST, "client.b7", GROUP, 8, 1234, "b7",
        body=Invocation("gettimeofday", (NOW_US,)))
    reply = make_envelope(
        MsgType.REPLY, GROUP, "client.b7", 8, 1234, "n1",
        body=Result(value=NOW_US + 250))
    ccs = make_envelope(
        MsgType.CCS, GROUP, GROUP, 0, 5678, "n1",
        body=CCSMessage("main", 5678, NOW_US, 1,
                        covers_req=9012, covers_seq=1))
    token = RegularToken(RING, 456789, 34567, 34560, "n2", (34561,))
    time_state = TimeTransferState(
        rounds={"main": 41, "aux": 3},
        buffered={"main": [CCSMessage("main", 42, NOW_US, 1, special=True,
                                      covers_req=77, covers_seq=2)]},
        accepted={"main": 42},
        ops={"main": (77, 2)},
        last_group_us=NOW_US - 5,
        causal_floor_us=None)
    state = make_envelope(
        MsgType.STATE, GROUP, GROUP, 0, 9, "n2",
        body={"target": "n1",
              "checkpoint": Checkpoint({"calls": 12}, 345, time_state, 340,
                                       extra=[request])})
    commit = CommitToken(
        RingId(8, "n0"), ("n0", "n1", "n2"), token_seq=5, rotation=2,
        info={"n1": CommitMemberInfo(RING, 120, 118, True),
              "n0": CommitMemberInfo(None, 0, 0, False)},
        rtr=[(RING, 119), (RingId(3, "n1"), 7)])
    ring_request = RegularMessage(RING, 34568, "n0", request)
    plain = {
        "request": request,
        "reply": reply,
        "ccs": RegularMessage(RING, 34567, "n1", ccs),
        "token": token,
        "token-idle": RegularToken(RING, 456790, 34567, 34567, None, ()),
        "ring-request": ring_request,
        "ring-reply": RegularMessage(RING, 34569, "n1", reply, True),
        "error-reply": make_envelope(
            MsgType.REPLY, GROUP, "client.b7", 8, 1235, "n1",
            body=Result(error="ValueError: no such method")),
        "join": JoinMessage("n2", frozenset({"n0", "n1", "n2"}),
                            frozenset({"n3"}), 7),
        "commit": commit,
        "beacon": RingBeacon(RING, "n0"),
        "lost": RegularMessage(RING, 12, "n2", LostMessage(), True),
        "summary": ShardSummary(2, "shard2", NOW_US, -1234, 88, 17,
                                "ab" * 32),
        "state": RegularMessage(RING, 34570, "n2", state),
        "json": {"topic": "bus", "items": [1, 2.5, None, "x"], "ok": True},
        "json-in-ring": RegularMessage(RING, 13, "n0", ["pub", "t", 1]),
        "empty-body": make_envelope(
            MsgType.GROUP_JOIN, GROUP, GROUP, 0, 1, "n0"),
    }
    cases = {name: (payload, None, False) for name, payload in plain.items()}
    cases["traced"] = (ring_request, TRACE, False)
    cases["signed"] = (plain["ccs"], None, True)
    cases["signed-traced"] = (token, TRACE, True)
    return cases


CASES = _cases()

GOLDEN = {
    "request": (
        "4354044800000002006e310000000800000000000000d2040000000000000209"
        "00636c69656e742e6237070074696d65737663020062370c0067657474696d65"
        "6f66646179010840c227dafe5b0600"
    ),
    "reply": (
        "4354043a00000002006e310000010800000000000000d2040000000000000307"
        "0074696d657376630900636c69656e742e623702006e31083ac327dafe5b0600"
        "05"
    ),
    "ccs": (
        "4354047000000002006e310001040000000000000002006e3007870000000000"
        "000002006e31000200000000000000002e1600000000000001070074696d6573"
        "7663070074696d6573766302006e3104006d61696e2e1600000000000040c227"
        "dafe5b0600010034230000000000000100000000000000"
    ),
    "token": (
        "4354043900000002006e310002040000000000000002006e3055f80600000000"
        "00078700000000000000870000000000000102006e3201000187000000000000"
    ),
    "token-idle": (
        "4354042d00000002006e310002040000000000000002006e3056f80600000000"
        "0007870000000000000787000000000000000000"
    ),
    "ring-request": (
        "4354046200000002006e310001040000000000000002006e3008870000000000"
        "000002006e3000000800000000000000d204000000000000020900636c69656e"
        "742e6237070074696d65737663020062370c0067657474696d656f6664617901"
        "0840c227dafe5b0600"
    ),
    "ring-reply": (
        "4354045400000002006e310001040000000000000002006e3009870000000000"
        "000102006e3100010800000000000000d20400000000000003070074696d6573"
        "76630900636c69656e742e623702006e31083ac327dafe5b060005"
    ),
    "error-reply": (
        "4354044e00000002006e310000010800000000000000d3040000000000000307"
        "0074696d657376630900636c69656e742e623702006e31050a1a0056616c7565"
        "4572726f723a206e6f2073756368206d6574686f64"
    ),
    "join": (
        "4354042600000002006e31000302006e32030002006e3002006e3102006e3201"
        "0002006e330700000000000000"
    ),
    "commit": (
        "4354049400000002006e310004080000000000000002006e30030002006e3002"
        "006e3102006e3205000000000000000200000000000000020002006e30000000"
        "00000000000000000000000000000002006e3101040000000000000002006e30"
        "78000000000000007600000000000000010200040000000000000002006e3077"
        "00000000000000030000000000000002006e310700000000000000"
    ),
    "beacon": (
        "4354041600000002006e310005040000000000000002006e3002006e30"
    ),
    "lost": (
        "4354042000000002006e310001040000000000000002006e300c000000000000"
        "000102006e3207"
    ),
    "summary": (
        "4354047800000002006e310008020000000000000040c227dafe5b06002efbff"
        "ffffffffff580000000000000011000000000000000600736861726432400061"
        "6261626162616261626162616261626162616261626162616261626162616261"
        "62616261626162616261626162616261626162616261626162616261626162"
    ),
    "state": (
        "4354045a01000002006e310001040000000000000002006e300a870000000000"
        "000002006e3200070000000000000000090000000000000006070074696d6573"
        "7663070074696d6573766302006e3202020000000a06007461726765740a0200"
        "6e310a0a00636865636b706f696e740307590100000000000054010000000000"
        "00000c0000007b2263616c6c73223a31327d0308020003006175780300000000"
        "00000004006d61696e2900000000000000010004006d61696e2a000000000000"
        "00010004006d61696e4d000000000000000200000000000000010004006d6169"
        "6e010004006d61696e2a0000000000000040c227dafe5b060001014d00000000"
        "0000000200000000000000013bc227dafe5b0600000101000000044200000000"
        "0800000000000000d204000000000000020900636c69656e742e623707007469"
        "6d65737663020062370c0067657474696d656f66646179010840c227dafe5b06"
        "00"
    ),
    "json": (
        "4354043d00000002006e31000600320000007b22746f706963223a2262757322"
        "2c226974656d73223a5b312c322e352c6e756c6c2c2278225d2c226f6b223a74"
        "7275657d"
    ),
    "json-in-ring": (
        "4354043200000002006e310001040000000000000002006e300d000000000000"
        "000002006e3006000d0000005b22707562222c2274222c315d"
    ),
    "empty-body": (
        "4354042f00000002006e31000003000000000000000001000000000000000607"
        "0074696d65737663070074696d6573766302006e3005"
    ),
    "traced": (
        "4354047b00000002006e31011000303061623030616230306162303061620500"
        "67772e6e3001040000000000000002006e3008870000000000000002006e3000"
        "000800000000000000d204000000000000020900636c69656e742e6237070074"
        "696d65737663020062370c0067657474696d656f66646179010840c227dafe5b"
        "0600"
    ),
    "signed": (
        "4354048900000002006e310203010000000000000050290cb98c8767c55d5328"
        "07e6512e6e01040000000000000002006e3007870000000000000002006e3100"
        "0200000000000000002e1600000000000001070074696d65737663070074696d"
        "6573766302006e3104006d61696e2e1600000000000040c227dafe5b06000100"
        "34230000000000000100000000000000"
    ),
    "signed-traced": (
        "4354046b00000002006e31031000303061623030616230306162303061620500"
        "67772e6e300301000000000000004a0fdefe912582e90099a6366344049e0204"
        "0000000000000002006e3055f806000000000007870000000000000087000000"
        "0000000102006e3201000187000000000000"
    ),
}

#: A token visit's two messages in one signed datagram: payload kind 9,
#: appended to v4 without a version bump (a daemon older than it rejects
#: the frame for ``payload``).  Kept apart from ``GOLDEN``, whose cases
#: match the v3 fixture's one for one.
GOLDEN_BATCH = {
    "signed-batch": (
        "435404f100000002006e3102030100000000000000a98d8e81b7c7e6ee79a63e"
        "d42e74cd320902005d00000001040000000000000002006e3008870000000000"
        "000002006e3000000800000000000000d204000000000000020900636c69656e"
        "742e6237070074696d65737663020062370c0067657474696d656f6664617901"
        "0840c227dafe5b06006b00000001040000000000000002006e30078700000000"
        "00000002006e31000200000000000000002e1600000000000001070074696d65"
        "737663070074696d6573766302006e3104006d61696e2e1600000000000040c2"
        "27dafe5b0600010034230000000000000100000000000000"
    ),
}
BATCH = Batch((CASES["ring-request"][0], CASES["ccs"][0]))


def test_batch_bytes_are_the_recorded_ones():
    data = encode_frame("n1", BATCH, None, _authenticator())
    assert data.hex() == GOLDEN_BATCH["signed-batch"]


def test_recorded_batch_decodes_to_its_items_and_re_encodes():
    data = bytes.fromhex(GOLDEN_BATCH["signed-batch"])
    src, decoded, trace = decode_frame_ex(data, auth=_authenticator(), auth_node="n2")
    assert (src, trace) == ("n1", None)
    assert classed(decoded) == classed(BATCH)
    assert encode_frame(src, decoded, None, _authenticator()) == data


def test_a_batch_item_is_the_payload_its_own_frame_carries():
    data = bytes.fromhex(GOLDEN_BATCH["signed-batch"])
    for name in ("ring-request", "ccs"):
        # An unsigned, untraced "n1" frame: header, source, flags byte.
        payload = bytes.fromhex(GOLDEN[name])[HEADER_SIZE + 4 + 1:]
        assert len(payload).to_bytes(4, "little") + payload in data


def test_wire_version_is_four():
    assert WIRE_VERSION == 4


def test_every_case_is_pinned():
    assert sorted(GOLDEN) == sorted(CASES) == sorted(GOLDEN_V3)


@pytest.mark.parametrize("name", sorted(GOLDEN_V3))
def test_a_v3_frame_is_rejected_for_its_version(name):
    """A v3 daemon cannot join a v4 ring: its frames are dropped, and
    counted under ``version``, before any byte of the body is read."""
    _payload, _trace, signed = CASES[name]
    with pytest.raises(FrameError) as rejected:
        decode_frame_ex(bytes.fromhex(GOLDEN_V3[name]),
                        auth=_authenticator() if signed else None,
                        auth_node="n2")
    assert rejected.value.reason == "version"


@pytest.mark.parametrize("name", sorted(CASES))
def test_frame_bytes_are_the_recorded_ones(name):
    payload, trace, signed = CASES[name]
    auth = _authenticator() if signed else None
    assert encode_frame("n1", payload, trace, auth).hex() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(CASES))
def test_recorded_bytes_decode_back_equal(name):
    payload, trace, signed = CASES[name]
    auth = _authenticator() if signed else None
    decoded = decode_frame_ex(bytes.fromhex(GOLDEN[name]),
                              auth=auth, auth_node="n2")
    assert decoded == ("n1", payload, trace)


@pytest.mark.parametrize("name", sorted(CASES))
def test_recorded_bytes_decode_to_the_same_classes_and_re_encode(name):
    """``==`` between message tuples is class-blind, and a decoder builds
    them positionally: hold it to the classes, and to the recorded bytes
    when what it built is encoded again."""
    payload, trace, signed = CASES[name]
    data = bytes.fromhex(GOLDEN[name])
    src, decoded, decoded_trace = decode_frame_ex(
        data, auth=_authenticator() if signed else None, auth_node="n2")
    assert classed(decoded) == classed(payload)
    assert classed(decoded_trace) == classed(trace)
    # A fresh authenticator: the recorded MAC was signed with nonce 1.
    assert encode_frame(src, decoded, decoded_trace,
                        _authenticator() if signed else None) == data
