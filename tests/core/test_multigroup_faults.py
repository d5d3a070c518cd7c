"""Multigroup causal stamps under faults: floors survive failover and
travel with state transfer."""

import pytest

from repro import Application
from repro.core import GroupClockStamp, observe_incoming, stamp_outgoing

from support import make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


class HopApp(Application):
    def observe_and_read(self, ctx, stamp_micros):
        observe_incoming(ctx, GroupClockStamp("other", stamp_micros))
        value = yield ctx.gettimeofday()
        return value.micros

    def read(self, ctx):
        value = yield ctx.gettimeofday()
        stamp = stamp_outgoing(ctx)
        return {"value": value.micros, "stamp": stamp.micros}


def deploy(seed):
    bed = make_testbed(seed=seed, epoch_spread_s=30.0)
    bed.record()
    bed.deploy("svc", HopApp, ["n1", "n2", "n3"], time_source="cts")
    client = bed.client("n0")
    bed.start()
    return bed, client


def call(bed, client, method, *args):
    def scenario():
        result = yield client.call("svc", method, *args, timeout=3.0)
        assert result.ok, result.error
        return result.value

    return bed.run_process(scenario())


class TestCausalFloorUnderFaults:
    def test_floor_survives_replica_crash(self):
        bed, client = deploy(seed=240)
        # Raise the floor far above the group's natural clock.
        natural = call(bed, client, "read")["value"]
        floor = natural + 60_000_000  # one minute ahead
        first = call(bed, client, "observe_and_read", floor)
        assert first > floor
        bed.crash("n1")
        bed.run(0.6)
        after = call(bed, client, "read")["value"]
        # The floor held across the crash: no value below it, ever.
        assert after > floor

    def test_floor_transfers_to_joining_replica(self):
        bed, client = deploy(seed=241)
        natural = call(bed, client, "read")["value"]
        floor = natural + 60_000_000
        call(bed, client, "observe_and_read", floor)
        joiner = bed.add_replica("svc", "n0", HopApp, time_source="cts")
        bed.run(1.0)
        assert joiner.state_transfer.ready
        assert joiner.time_source.clock_state.causal_floor_us is not None
        assert joiner.time_source.clock_state.causal_floor_us >= floor
        after = call(bed, client, "read")["value"]
        assert after > floor
        bed.run(0.1)
        joiner_last = joiner.time_source.recorder.readings[-1][3].micros
        assert joiner_last > floor

    def test_floor_is_replica_consistent(self):
        bed, client = deploy(seed=242)
        natural = call(bed, client, "read")["value"]
        floor = natural + 5_000_000
        call(bed, client, "observe_and_read", floor)
        bed.run(0.1)
        floors = {
            nid: r.time_source.clock_state.causal_floor_us
            for nid, r in bed.replicas("svc").items()
        }
        assert set(floors.values()) == {floor}
