"""Baseline tests: primary/backup clock reading ([9], [3])."""

import pytest

from support import ClockApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


def deploy_pb(seed, style="semi-active", epoch_spread_s=30.0):
    bed = make_testbed(seed=seed, epoch_spread_s=epoch_spread_s)
    bed.record()
    bed.deploy(
        "svc", ClockApp, ["n1", "n2", "n3"],
        style=style, time_source="primary-backup",
    )
    client = bed.client("n0")
    bed.start(settle=0.3)
    return bed, client


class TestNormalOperation:
    def test_backups_adopt_conveyed_values(self):
        """During failure-free operation the approach IS consistent:
        backups use the primary's conveyed values."""
        bed, client = deploy_pb(seed=130)
        call_n(bed, client, "svc", "get_time", 6)
        bed.run(0.1)
        readings = [
            [v.micros for _, _, _, v in r.time_source.recorder.readings][-6:]
            for r in bed.replicas("svc").values()
        ]
        assert readings[0] == readings[1] == readings[2]

    def test_primary_replies_use_its_own_clock(self):
        bed, client = deploy_pb(seed=131)
        primary = next(r for r in bed.replicas("svc").values() if r.is_primary)
        values = call_n(bed, client, "svc", "get_time", 3)
        # The reply values come straight from the primary's clock: they
        # track its disciplined reading, not any group agreement.
        offset = primary.node.clock.true_offset_us()
        now_us = int(bed.sim.now * 1e6)
        assert abs(values[-1] - (now_us + offset)) < 50_000

    def test_conveyance_counted(self):
        bed, client = deploy_pb(seed=132)
        call_n(bed, client, "svc", "get_time", 5)
        bed.run(0.1)
        primary = next(r for r in bed.replicas("svc").values() if r.is_primary)
        assert primary.time_source.conveyed_sent >= 5
        backups = [r for r in bed.replicas("svc").values() if not r.is_primary]
        assert all(b.time_source.conveyed_consumed >= 5 for b in backups)


class TestFailoverHazard:
    def test_rollback_or_fast_forward_occurs(self):
        """The Section 1 hazard: across seeds, at least one failover
        produces a clock step far outside the elapsed real time."""
        hazard = False
        for seed in range(133, 141):
            bed, client = deploy_pb(seed=seed)
            before = call_n(bed, client, "svc", "get_time", 3)
            t0 = bed.sim.now
            primary = next(
                nid for nid, r in bed.replicas("svc").items() if r.is_primary
            )
            bed.crash(primary)
            bed.run(0.6)
            after = call_n(bed, client, "svc", "get_time", 3)
            real_gap_us = (bed.sim.now - t0) * 1e6
            step = after[0] - before[-1]
            if step <= 0 or step > real_gap_us + 1_000_000:
                hazard = True
                break
        assert hazard, "expected roll-back or fast-forward within 8 seeds"
