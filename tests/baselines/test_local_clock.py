"""Baseline tests: raw local clocks exhibit the Figure 1 inconsistency."""

import pytest

from support import ClockApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


class TestLocalClockInconsistency:
    def test_replicas_disagree_on_clock_values(self):
        """The Figure 1 problem: the same logical operation returns
        different values at different replicas."""
        bed = make_testbed(seed=110, epoch_spread_s=10.0)
        bed.record()
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "get_time", 5)
        bed.run(0.05)
        readings = [
            tuple(v.micros for _, _, _, v in r.time_source.recorder.readings)
            for r in bed.replicas("svc").values()
        ]
        # With unsynchronized clocks the values differ by seconds.
        assert readings[0] != readings[1]
        assert readings[1] != readings[2]
        spread = max(r[0] for r in readings) - min(r[0] for r in readings)
        assert spread > 100_000  # > 100 ms disagreement

    def test_each_replica_is_locally_monotone(self):
        bed = make_testbed(seed=111)
        bed.record()
        bed.deploy("svc", ClockApp, ["n1", "n2"], time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "get_time", 10)
        bed.run(0.05)
        for replica in bed.replicas("svc").values():
            values = [v.micros for _, _, _, v in replica.time_source.recorder.readings]
            assert values == sorted(values)

    def test_call_granularities(self):
        bed = make_testbed(seed=112)
        bed.deploy("svc", ClockApp, ["n1"], time_source="local")
        client = bed.client("n0")
        bed.start()
        secs = call_n(bed, client, "svc", "get_time_coarse", 2)
        ms = call_n(bed, client, "svc", "get_time_ms", 2)
        assert all(v % 1_000_000 == 0 for v in secs)
        assert all(v % 1_000 == 0 for v in ms)


class TestOneReadContract:
    def test_a_baseline_read_ignores_keywords_it_has_no_use_for(self):
        # Every time source's read takes op_id, fast_ok and floor_us: the
        # replica's context passes them without asking the source.
        bed = make_testbed(seed=112)
        bed.deploy("svc", ClockApp, ["n1"], time_source="local")
        source = bed.replicas("svc")["n1"].time_source
        event = source.read("t", "gettimeofday", 1_234_567, op_id=(1, 1),
                            fast_ok=False, floor_us=9_999_999)
        assert event.value.micros == 1_234_567
