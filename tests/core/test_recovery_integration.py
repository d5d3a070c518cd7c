"""Integration of new clocks (paper Section 3.2): joining/recovering
replicas adopt the group clock through the special CCS round."""

import pytest

from support import ClockApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


class TestNewReplicaIntegration:
    def test_joiner_adopts_group_clock(self):
        bed = make_testbed(seed=90, epoch_spread_s=30.0)
        bed.deploy("svc", ClockApp, ["n1", "n2"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "get_time", 5)
        joiner = bed.add_replica("svc", "n3", ClockApp, time_source="cts")
        bed.run(0.5)
        assert joiner.state_transfer.ready
        # The special round gave the joiner a committed offset.
        assert joiner.time_source.stats.recovery_adoptions >= 1
        assert joiner.time_source.clock_state.last_group_us is not None

    def test_group_clock_monotone_across_join(self):
        bed = make_testbed(seed=91, epoch_spread_s=30.0)
        bed.deploy("svc", ClockApp, ["n1", "n2"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        before = call_n(bed, client, "svc", "get_time", 5)
        bed.add_replica("svc", "n3", ClockApp, time_source="cts")
        bed.run(0.5)
        after = call_n(bed, client, "svc", "get_time", 5)
        sequence = before + after
        assert all(b > a for a, b in zip(sequence, sequence[1:]))

    def test_joiner_returns_consistent_values(self):
        bed = make_testbed(seed=92, epoch_spread_s=30.0)
        bed.record()
        bed.deploy("svc", ClockApp, ["n1", "n2"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "get_time", 3)
        joiner = bed.add_replica("svc", "n3", ClockApp, time_source="cts")
        bed.run(0.5)
        call_n(bed, client, "svc", "get_time", 5)
        bed.run(0.1)
        joiner_vals = [v.micros for _, _, _, v in joiner.time_source.recorder.readings][-5:]
        old_vals = [
            v.micros
            for _, _, _, v in bed.replicas("svc")["n1"].time_source.recorder.readings
        ][-5:]
        assert joiner_vals == old_vals

    def test_joiner_round_counters_align(self):
        bed = make_testbed(seed=93)
        bed.deploy("svc", ClockApp, ["n1", "n2"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "get_time", 4)
        joiner = bed.add_replica("svc", "n3", ClockApp, time_source="cts")
        bed.run(0.5)
        call_n(bed, client, "svc", "get_time", 2)
        bed.run(0.1)
        old = bed.replicas("svc")["n1"].time_source
        new = joiner.time_source
        for thread_id, handler in old._handlers.items():
            if thread_id in new._handlers:
                assert (
                    new._handlers[thread_id].my_round_number
                    == handler.my_round_number
                )

    def test_crashed_replica_reintegrates_clock(self):
        bed = make_testbed(seed=94, epoch_spread_s=30.0)
        bed.record()
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        before = call_n(bed, client, "svc", "get_time", 4)
        bed.crash("n3")
        bed.run(0.4)
        mid = call_n(bed, client, "svc", "get_time", 4)
        bed.recover("n3")
        bed.run(0.5)
        recovered = bed.add_replica("svc", "n3", ClockApp, time_source="cts")
        bed.run(1.0)
        assert recovered.state_transfer.ready
        after = call_n(bed, client, "svc", "get_time", 4)
        bed.run(0.1)
        sequence = before + mid + after
        assert all(b > a for a, b in zip(sequence, sequence[1:]))
        # The recovered replica answers identically to the survivors.
        rec_vals = [v.micros for _, _, _, v in recovered.time_source.recorder.readings][-4:]
        assert rec_vals == after

    def test_two_sequential_joiners(self):
        bed = make_testbed(seed=95)
        bed.record()
        bed.deploy("svc", ClockApp, ["n1"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "get_time", 2)
        bed.add_replica("svc", "n2", ClockApp, time_source="cts")
        bed.run(0.5)
        call_n(bed, client, "svc", "get_time", 2)
        bed.add_replica("svc", "n3", ClockApp, time_source="cts")
        bed.run(0.5)
        values = call_n(bed, client, "svc", "get_time", 4)
        bed.run(0.1)
        readings = [
            tuple(v.micros for _, _, _, v in r.time_source.recorder.readings)[-4:]
            for r in bed.replicas("svc").values()
        ]
        assert readings[0] == readings[1] == readings[2]
        assert list(readings[0]) == values
