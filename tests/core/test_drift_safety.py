"""Drift compensation must never defeat monotonicity.

An adversarially mis-configured steering reference (e.g. pointing at a
clock seconds in the past) pulls proposals downward; the monotonic floor
must clamp the adjusted proposal so the group clock still strictly
increases.
"""

import pytest

from repro.core import GroupClockState, ReferenceSteering

from support import ClockApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


class TestClampUnit:
    def test_clamp_raises_low_proposals(self):
        state = GroupClockState()
        state.commit(group_us=10_000, physical_us=10_000)
        assert state.clamp_to_floor(5_000) == 10_001
        assert state.clamp_to_floor(10_000) == 10_001
        assert state.clamp_to_floor(20_000) == 20_000

    def test_clamp_respects_causal_floor(self):
        state = GroupClockState()
        state.observe_causal_timestamp(99_000)
        assert state.clamp_to_floor(50_000) == 99_001


class TestAdversarialSteering:
    def test_backwards_reference_cannot_roll_clock_back(self):
        """A steering reference stuck at zero drags every proposal toward
        the epoch; the clamp keeps the group clock strictly monotone."""
        bed = make_testbed(seed=280, epoch_spread_s=10.0)
        bed.deploy(
            "svc", ClockApp, ["n1", "n2", "n3"],
            time_source="cts",
            drift=ReferenceSteering(lambda: 0, proportion=1.0),
        )
        client = bed.client("n0")
        bed.start()
        values = call_n(bed, client, "svc", "get_time", 10)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_forward_reference_fast_forwards_but_stays_consistent(self):
        """A reference far in the future fast-forwards the group clock —
        allowed (it is what steering is for) — but replicas stay
        identical."""
        bed = make_testbed(seed=281)
        bed.record()
        bed.deploy(
            "svc", ClockApp, ["n1", "n2", "n3"],
            time_source="cts",
            drift=ReferenceSteering(lambda: 10**13, proportion=0.5),
        )
        client = bed.client("n0")
        bed.start()
        values = call_n(bed, client, "svc", "get_time", 5)
        assert all(b > a for a, b in zip(values, values[1:]))
        bed.run(0.05)
        readings = [
            tuple(v.micros for _, _, _, v in r.time_source.recorder.readings)[-5:]
            for r in bed.replicas("svc").values()
        ]
        assert readings[0] == readings[1] == readings[2]
