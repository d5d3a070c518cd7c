"""Primary-component partition handling (paper Section 2).

"Network partitioning faults are handled by the underlying group
communication system, which uses a primary component model ... only the
primary component survives a network partition."

The replica layer enforces it: a replica in a non-primary component
suspends; after the partition heals it rejoins via state transfer if
other members kept processing.
"""

import pytest

from repro.errors import RpcTimeout

from support import ClockApp, CounterApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


def partitioned_bed(seed, app=CounterApp, time_source="local"):
    bed = make_testbed(seed=seed)
    bed.record()
    bed.deploy("svc", app, ["n1", "n2", "n3"], time_source=time_source)
    client = bed.client("n0")
    bed.start()
    return bed, client


class TestSuspension:
    def test_minority_replica_suspends(self):
        bed, client = partitioned_bed(seed=180)
        call_n(bed, client, "svc", "increment", 3)
        bed.cluster.network.partition({"n0", "n1", "n2"}, {"n3"})
        bed.run(0.4)
        assert bed.replicas("svc")["n3"].suspended
        for node_id in ("n1", "n2"):
            assert not bed.replicas("svc")[node_id].suspended

    def test_majority_keeps_serving(self):
        bed, client = partitioned_bed(seed=181)
        call_n(bed, client, "svc", "increment", 3)
        bed.cluster.network.partition({"n0", "n1", "n2"}, {"n3"})
        bed.run(0.4)
        values = call_n(bed, client, "svc", "increment", 3)
        assert values == [4, 5, 6]

    def test_suspended_replica_does_not_process(self):
        bed, client = partitioned_bed(seed=182)
        call_n(bed, client, "svc", "increment", 2)
        bed.cluster.network.partition({"n0", "n1", "n2"}, {"n3"})
        bed.run(0.4)
        call_n(bed, client, "svc", "increment", 4)
        minority = bed.replicas("svc")["n3"]
        assert minority.app.count == 2  # stopped at the partition point

    def test_client_stranded_with_minority_times_out(self):
        bed = make_testbed(seed=183)
        bed.deploy("svc", CounterApp, ["n1", "n2", "n3"], time_source="local")
        stranded = bed.client("n3", "stranded-client")
        bed.start()
        bed.cluster.network.partition({"n0", "n1", "n2"}, {"n3"})
        bed.run(0.4)

        def scenario():
            try:
                yield stranded.call("svc", "increment", timeout=0.2)
            except RpcTimeout:
                return "timed out"
            return "answered"

        # n3's replica is suspended: the minority makes no progress.
        assert bed.run_process(scenario()) == "timed out"


class TestRemerge:
    def heal_and_settle(self, bed):
        bed.cluster.network.heal()
        bed.run(1.5)

    def test_minority_rejoins_with_fresh_state(self):
        bed, client = partitioned_bed(seed=184)
        call_n(bed, client, "svc", "increment", 2)
        bed.cluster.network.partition({"n0", "n1", "n2"}, {"n3"})
        bed.run(0.4)
        call_n(bed, client, "svc", "increment", 5)  # majority-only work
        self.heal_and_settle(bed)
        rejoined = bed.replicas("svc")["n3"]
        assert not rejoined.suspended
        assert rejoined.state_transfer.ready
        assert rejoined.app.count == 7  # caught up via state transfer

    def test_rejoined_replica_processes_new_requests(self):
        bed, client = partitioned_bed(seed=185)
        call_n(bed, client, "svc", "increment", 2)
        bed.cluster.network.partition({"n0", "n1", "n2"}, {"n3"})
        bed.run(0.4)
        call_n(bed, client, "svc", "increment", 3)
        self.heal_and_settle(bed)
        values = call_n(bed, client, "svc", "increment", 2)
        assert values == [6, 7]
        bed.run(0.2)
        assert bed.replicas("svc")["n3"].app.count == 7

    def test_group_clock_monotone_through_partition_cycle(self):
        bed, client = partitioned_bed(seed=186, app=ClockApp,
                                      time_source="cts")
        before = call_n(bed, client, "svc", "get_time", 3)
        bed.cluster.network.partition({"n0", "n1", "n2"}, {"n3"})
        bed.run(0.4)
        during = call_n(bed, client, "svc", "get_time", 3)
        self.heal_and_settle(bed)
        after = call_n(bed, client, "svc", "get_time", 3)
        sequence = before + during + after
        assert all(b > a for a, b in zip(sequence, sequence[1:]))

    def test_rejoined_replica_clock_consistent(self):
        bed, client = partitioned_bed(seed=187, app=ClockApp,
                                      time_source="cts")
        call_n(bed, client, "svc", "get_time", 3)
        bed.cluster.network.partition({"n0", "n1", "n2"}, {"n3"})
        bed.run(0.4)
        call_n(bed, client, "svc", "get_time", 3)
        self.heal_and_settle(bed)
        final = call_n(bed, client, "svc", "get_time", 4)
        bed.run(0.2)
        rejoined = bed.replicas("svc")["n3"]
        rejoined_values = [
            v.micros for _, _, _, v in rejoined.time_source.recorder.readings
        ][-4:]
        assert rejoined_values == final
