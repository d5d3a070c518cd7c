"""A lost token is retransmitted, not re-formed around.

Totem re-sends the token it forwarded when no progress evidence follows
within the retransmit timeout.  A node's *own* multicast is not such
evidence: on a LAN that handed the sender a copy of each multicast, that
copy disarmed the retransmit timer of the token just forwarded, so one
lost token cost the token-loss timeout and a ring re-formation.  The
simulated LAN no longer hands a sender its own multicast; these tests
pin what that buys on a four-node simulated bed.  The live counterpart
is ``tests/net/test_udp_fanout.py``.
"""

from repro.totem.messages import RegularToken

from support import ClockApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path)

GROUP = "timesvc"


def _bed(seed):
    bed = make_testbed(seed=seed)
    bed.deploy(GROUP, ClockApp, ["n1", "n2", "n3"], style="active",
               time_source="cts")
    client = bed.client("n0")
    bed.start()
    call_n(bed, client, GROUP, "get_time", 2)  # the ring is formed and serving
    return bed, client


def _totals(bed, stat):
    return sum(getattr(bed.processors[n].stats, stat) for n in bed.node_ids)


def test_own_multicast_does_not_disarm_token_retransmission():
    """After a visit that multicast a message, the forwarded token stays
    covered by the retransmit timer until a *peer's* frame arrives."""
    bed, client = _bed(seed=5)
    node, processor = bed.node("n0"), bed.processors["n0"]
    forward, receive = processor._forward_token, node.receiver
    multicast_seen = processor.stats.messages_multicast
    watching = False
    #: Per watched visit: was the timer still armed when the first frame
    #: from a peer arrived?
    armed_at_peer_frame = []
    own_copies = []

    def forwarding(token):
        nonlocal multicast_seen, watching
        forward(token)
        watching = processor.stats.messages_multicast > multicast_seen
        multicast_seen = processor.stats.messages_multicast

    def receiving(frame):
        nonlocal watching
        if frame.src == "n0":
            own_copies.append(frame)
        elif watching:
            watching = False
            armed_at_peer_frame.append(processor._retransmit.armed)
        receive(frame)

    processor._forward_token = forwarding
    node.set_receiver(receiving)
    since = _totals(bed, "token_retransmissions")
    call_n(bed, client, GROUP, "get_time", 5)

    assert own_copies == []
    assert len(armed_at_peer_frame) >= 5
    assert all(armed_at_peer_frame)
    assert _totals(bed, "token_retransmissions") == since


def test_a_token_lost_after_a_sending_visit_is_retransmitted():
    """Drop the token once, right after a visit that multicast: the
    sender's retransmit timer re-sends it and the ring carries on, with
    no membership change."""
    bed, client = _bed(seed=5)
    processor = bed.processors["n0"]
    unicast = processor.unicast_raw
    multicast_seen = processor.stats.messages_multicast
    dropped = []

    def lossy_unicast(dst, message):
        nonlocal multicast_seen
        sent = processor.stats.messages_multicast > multicast_seen
        multicast_seen = processor.stats.messages_multicast
        if isinstance(message, RegularToken) and sent and not dropped:
            dropped.append(message.token_seq)
            return  # lost on the wire
        unicast(dst, message)

    processor.unicast_raw = lossy_unicast
    rings = _totals(bed, "membership_changes")
    retransmissions = processor.stats.token_retransmissions
    values = call_n(bed, client, GROUP, "get_time", 5)

    assert len(dropped) == 1
    assert _totals(bed, "membership_changes") == rings
    assert processor.stats.token_retransmissions > retransmissions
    assert all(b > a for a, b in zip(values, values[1:]))
