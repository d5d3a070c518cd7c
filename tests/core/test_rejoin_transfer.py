"""A state transfer onto a replica that already holds a handler.

A replica partitioned away from the primary component rejoins through a
second state transfer while its ``0:main`` handler still exists.  The
transferred rounds and the winners delivered after them must wait in
that one handler, in round order: with a second (common) buffer the
thread's next read queued older transferred rounds behind a newer
winner, and crash-only mode failed with ``buffered CCS round N does not
follow consumption point M`` (ROADMAP K1) while Byzantine mode silently
adopted the numbering as a ``round-counter`` repair.
"""

import pytest

from repro import Testbed
from repro.errors import RpcTimeout

from support import ClockApp  # noqa: E402 (tests/ on sys.path via conftest)

SEEDS = [0, 3]
CLIENTS = 4


def partition_and_rejoin(seed, **cts_options):
    """``CLIENTS`` closed-loop clients on n0 read the group while n3 is
    cut off for 0.3 s and heals back in.  Returns the bed and the
    operations n3 had served when it applied each later transfer."""
    bed = Testbed(seed=seed)
    bed.record()
    bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], **cts_options)
    client = bed.client("n0")
    bed.start()

    def worker():
        while True:
            try:
                yield from client.timed_call("svc", "get_time", timeout=0.5)
            except RpcTimeout:
                pass

    for _ in range(CLIENTS):
        bed.sim.process(worker())
    rejoiner = bed.replicas("svc")["n3"].time_source
    served_at_transfer = []
    apply_transfer = rejoiner.set_transfer_state

    def spy(state):
        served_at_transfer.append(set(rejoiner.recorder.served_ops))
        apply_transfer(state)

    rejoiner.set_transfer_state = spy
    bed.run(0.1)
    bed.cluster.network.partition({"n0", "n1", "n2"}, {"n3"})
    bed.run(0.3)
    bed.cluster.network.heal()
    bed.run(0.6)
    return bed, served_at_transfer


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("byzantine", [False, True],
                         ids=["crash-only", "byzantine"])
def test_rejoining_replica_serves_the_agreed_rounds(byzantine, seed):
    bed, served_at_transfer = partition_and_rejoin(seed, byzantine=byzantine)
    replicas = bed.replicas("svc")
    rejoiner = replicas["n3"]
    assert rejoiner.state_transfer.ready
    assert served_at_transfer, "n3 never re-transferred after the partition"
    assert "round-counter" not in rejoiner.time_source.stats.stabilizations
    # Only what n3 served after its rejoining transfer: at the partition
    # instant itself a lone replica may commit a round (ROADMAP K6).
    served = rejoiner.time_source.recorder.served_ops
    after = {op: value for op, value in served.items()
             if op not in served_at_transfer[-1]}
    assert after, "n3 served nothing after rejoining"
    for peer in ("n1", "n2"):
        peer_served = replicas[peer].time_source.recorder.served_ops
        shared = {op: value for op, value in after.items()
                  if op in peer_served}
        # The run may end before a peer serves a client's in-flight op.
        assert len(after) - len(shared) <= CLIENTS, peer
        assert {op: peer_served[op] for op in shared} == shared, peer
