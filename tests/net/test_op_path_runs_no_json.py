"""A live op's frames run no JSON.

The benchmark's request (a ``gettimeofday`` whose ``after_us`` floor is
an int, or ``None`` on a session's first op), its integer reply, a CCS
round and a token must encode and decode with the codec's JSON functions
made to raise.  A change that puts an RPC body back on JSON fails here
by name, before a timed run has to notice it.
"""

import pytest

from repro.core.messages import CCSMessage
from repro.net.wire import decode_frame_ex, encode_frame
from repro.replication import codec
from repro.replication.envelope import MsgType, make_envelope
from repro.rpc.messages import Invocation, Result
from repro.totem.messages import RegularMessage, RegularToken, RingId
from support import classed

GROUP = "timesvc"
RING = RingId(4, "n0")
NOW_US = 1_790_000_000_123_456


def _request(after_us):
    return make_envelope(MsgType.REQUEST, "client.b7", GROUP, 8, 1234, "b7",
                         body=Invocation("gettimeofday", (after_us,)))


FRAMES = {
    "request": _request(NOW_US),
    "request-first-op": _request(None),
    "ring-request": RegularMessage(RING, 34568, "n0", _request(NOW_US)),
    "reply": make_envelope(MsgType.REPLY, GROUP, "client.b7", 8, 1234, "n1",
                           body=Result(value=NOW_US + 250)),
    "ccs": RegularMessage(RING, 34567, "n1", make_envelope(
        MsgType.CCS, GROUP, GROUP, 0, 5678, "n1",
        body=CCSMessage("main", 5678, NOW_US, 1, covers_req=9012,
                        covers_seq=1))),
    "token": RegularToken(RING, 456789, 34567, 34560, "n2", (34561,)),
}


@pytest.fixture
def no_json(monkeypatch):
    def refuse(*_args):
        raise AssertionError("JSON ran on a live op's path")

    monkeypatch.setattr(codec, "_json_encode", refuse)
    monkeypatch.setattr(codec, "_json_decode", refuse)


@pytest.mark.parametrize("name", sorted(FRAMES))
def test_the_frame_round_trips_with_json_refused(no_json, name):
    payload = FRAMES[name]
    src, decoded, _trace = decode_frame_ex(encode_frame("n1", payload))
    assert src == "n1"
    assert classed(decoded) == classed(payload)


def test_the_refusal_bites(no_json):
    """A container reply still goes as a JSON chunk, so it must fail
    here: the fixture is what stands between the others and JSON."""
    reply = make_envelope(MsgType.REPLY, GROUP, "client.b7", 8, 1, "n1",
                          body=Result(value={"micros": NOW_US}))
    with pytest.raises(AssertionError, match="JSON ran"):
        encode_frame("n1", reply)
