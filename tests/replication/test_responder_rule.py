"""The responder rule of active replication, in the simulator.

A ``REQUEST`` whose client group lives only on nodes of the service
view is answered by the replicas on those nodes, in process; otherwise
every replica answers through the ring.  A node whose replica would not
execute the request sends it as ``REQUEST_ALL``.
"""

from repro.replication.envelope import MsgType
from repro.replication.state_transfer import DISCARDING

from support import CounterApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


def serving_bed(seed):
    bed = make_testbed(seed=seed)
    bed.deploy("svc", CounterApp, ["n1", "n2", "n3"], time_source="local")
    return bed


def replies_sent(bed):
    return {node: replica.stats.replies_sent
            for node, replica in bed.replicas("svc").items()}


def test_a_client_on_a_replica_node_is_answered_in_process():
    bed = serving_bed(seed=40)
    local = bed.client("n1")
    remote = bed.client("n0")
    bed.start()
    assert call_n(bed, local, "svc", "increment", 3) == [1, 2, 3]
    bed.run(0.1)
    assert replies_sent(bed) == {"n1": 3, "n2": 0, "n3": 0}
    assert local.stats.replies_first == 3
    assert local.stats.replies_duplicate == 0
    # Every replica still executed every op.
    assert all(replica.stats.requests_processed == 3
               for replica in bed.replicas("svc").values())
    # A client on n0, off the view, gets every replica's ordered reply.
    assert call_n(bed, remote, "svc", "increment", 2) == [4, 5]
    bed.run(0.1)
    assert replies_sent(bed) == {"n1": 5, "n2": 2, "n3": 2}
    assert remote.stats.replies_duplicate == 4


def test_a_client_group_also_off_the_view_falls_back_to_the_ring():
    bed = serving_bed(seed=42)
    # One client group with members on n1 (in the view) and n0 (not):
    # n0's member can only be reached through the ring.
    local = bed.client("n1", group="client.shared")
    bed.client("n0", group="client.shared")
    bed.start()
    call_n(bed, local, "svc", "increment", 2)
    bed.run(0.1)
    assert replies_sent(bed) == {"n1": 2, "n2": 2, "n3": 2}


def test_a_replica_without_state_has_its_node_ask_every_replica():
    bed = serving_bed(seed=43)
    local = bed.client("n1")
    bed.start()
    call_n(bed, local, "svc", "increment", 1)
    sent = []
    runtime = bed.runtimes["n1"]

    def mcast(envelope, ordered=runtime.mcast):
        sent.append(envelope.header.msg_type)
        ordered(envelope)

    runtime.mcast = mcast
    # As between a recovering replica's join and its own GET_STATE:
    # it will not run what is ordered now, so it could not answer.
    replica = bed.replicas("svc")["n1"]
    replica.state_transfer.phase = DISCARDING
    assert not replica.endpoint.executes()
    assert call_n(bed, local, "svc", "increment", 1) == [2]
    assert sent[0] is MsgType.REQUEST_ALL
    bed.run(0.1)
    # Op 1 in process at n1; op 2 through the ring from n2 and n3.
    assert replies_sent(bed) == {"n1": 1, "n2": 1, "n3": 1}
