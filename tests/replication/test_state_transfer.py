"""Tests for state transfer to joining and recovering replicas."""

import pytest

from repro.replication.envelope import MsgType
from support import CounterApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


class TestJoin:
    def test_joiner_adopts_current_state(self):
        bed = make_testbed(seed=20)
        bed.deploy("svc", CounterApp, ["n1", "n2"], time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "increment", 5)
        joiner = bed.add_replica("svc", "n3", CounterApp, time_source="local")
        bed.run(0.5)
        assert joiner.state_transfer.ready
        assert joiner.app.count == 5
        assert joiner.request_index == bed.replicas("svc")["n1"].request_index

    def test_joiner_processes_subsequent_requests(self):
        bed = make_testbed(seed=21)
        bed.deploy("svc", CounterApp, ["n1", "n2"], time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "increment", 3)
        joiner = bed.add_replica("svc", "n3", CounterApp, time_source="local")
        bed.run(0.5)
        call_n(bed, client, "svc", "increment", 2)
        bed.run(0.1)
        assert joiner.app.count == 5
        assert joiner.stats.requests_processed == 2

    def test_requests_during_transfer_are_not_lost_or_doubled(self):
        """Requests racing the state transfer are applied exactly once at
        the joiner (checkpoint covers pre-GET_STATE, replay the rest)."""
        bed = make_testbed(seed=22)
        bed.deploy("svc", CounterApp, ["n1", "n2"], time_source="local")
        client = bed.client("n0")
        bed.start()

        def burst():
            for i in range(20):
                result, _ = yield from client.timed_call("svc", "increment")
                assert result.ok
            return None

        # Launch the joiner mid-burst.
        proc = bed.sim.process(burst(), name="burst")
        bed.run(0.002)
        joiner = bed.add_replica("svc", "n3", CounterApp, time_source="local")
        while not proc.triggered:
            bed.run(0.01)
        bed.run(0.5)
        assert joiner.state_transfer.ready
        assert joiner.app.count == 20

    def test_crashed_replica_recovers_with_state(self):
        bed = make_testbed(seed=23)
        bed.deploy("svc", CounterApp, ["n1", "n2", "n3"], time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "increment", 4)
        bed.crash("n3")
        bed.run(0.3)
        call_n(bed, client, "svc", "increment", 3)
        # Restart node n3 and re-add a fresh replica.
        bed.recover("n3")
        bed.run(0.5)  # let the node rejoin the ring
        recovered = bed.add_replica("svc", "n3", CounterApp, time_source="local")
        bed.run(1.0)
        assert recovered.state_transfer.ready
        assert recovered.app.count == 7
        call_n(bed, client, "svc", "increment", 1)
        bed.run(0.1)
        assert recovered.app.count == 8

    def test_passive_joiner_gets_log_tail(self):
        bed = make_testbed(seed=24)
        bed.deploy(
            "svc", CounterApp, ["n1", "n2"],
            style="passive", time_source="local", checkpoint_interval=100,
        )
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "increment", 6)
        joiner = bed.add_replica(
            "svc", "n3", CounterApp,
            style="passive", time_source="local", checkpoint_interval=100,
        )
        bed.run(0.5)
        assert joiner.state_transfer.ready
        # Primary crashes twice so the joiner eventually promotes.
        for nid in ["n1", "n2"]:
            if nid in bed.replicas("svc"):
                bed.crash(nid)
                bed.run(0.5)
        assert joiner.is_primary
        values = call_n(bed, client, "svc", "increment", 1)
        assert values == [7]


class TestFounders:
    def test_first_member_is_founder(self):
        bed = make_testbed(seed=25)
        bed.deploy("svc", CounterApp, ["n1"], time_source="local")
        bed.start()
        replica = bed.replicas("svc")["n1"]
        assert replica.state_transfer.ready

    def test_concurrent_cold_start_one_founder(self):
        bed = make_testbed(seed=26)
        bed.deploy("svc", CounterApp, ["n1", "n2", "n3"], time_source="local")
        bed.start(settle=0.5)
        ready = [r for r in bed.replicas("svc").values() if r.state_transfer.ready]
        assert len(ready) == 3  # everyone became ready (founder or transfer)


class TestGetStateOnTheRequestQueue:
    """The main thread's queue holds ``(envelope, index)`` pairs and
    nothing else.  An ``Envelope`` is itself a tuple (of three), so a bare
    one on the queue cannot be told from a pair by ``isinstance(item,
    tuple)``: a GET_STATE went on bare, and the thread unpacked it as a
    pair."""

    @pytest.mark.parametrize("options, pipelined", [
        ({"time_source": "local"}, False),  # serial: every read holds
        ({}, True),                         # pipelined: reads park
    ])
    def test_get_state_is_served_through_either_loop(self, options, pipelined):
        bed = make_testbed(seed=27)
        bed.deploy("svc", CounterApp, ["n1", "n2"], **options)
        client = bed.client("n0")
        bed.start()
        donor = bed.replicas("svc")["n1"]
        assert donor._serial is not pipelined
        queued = []
        submit = donor._submit
        donor._submit = lambda item: (queued.append(item), submit(item))[1]
        call_n(bed, client, "svc", "stamped_increment", 3)
        joiner = bed.add_replica("svc", "n3", CounterApp, **options)
        bed.run(0.5)
        assert joiner.state_transfer.ready
        assert joiner.app.count == 3
        kinds = [envelope.header.msg_type for envelope, _index in queued]
        assert kinds.count(MsgType.GET_STATE) == 1
        assert all(type(item) is tuple and len(item) == 2 for item in queued)
        call_n(bed, client, "svc", "stamped_increment", 1)
        bed.run(0.1)
        assert joiner.app.count == donor.app.count == 4
