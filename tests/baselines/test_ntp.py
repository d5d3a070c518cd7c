"""Baseline tests: NTP-style discipline reduces skew but cannot make
replica clock reads consistent (paper Section 1)."""

import pytest

from support import ClockApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


class TestNtpDaemon:
    def test_discipline_converges_clock_to_reference(self):
        bed = make_testbed(seed=120, epoch_spread_s=10.0)
        daemons = bed.install_ntp(poll_interval_s=0.5, gain=0.7)
        bed.start()
        bed.run(20.0)
        for node in bed.cluster.nodes.values():
            # Initially up to 10 s off; after discipline, within ~2 ms.
            assert abs(node.clock.true_offset_us()) < 2_000
        assert all(d.polls > 10 for d in daemons)

    def test_disciplined_clock_can_step_backwards(self):
        """Stepping is what makes OS clock discipline dangerous for
        replication: time can visibly roll back on one node."""
        bed = make_testbed(seed=121, epoch_spread_s=10.0)
        bed.install_ntp(poll_interval_s=0.5, gain=0.7)
        node = bed.cluster.node("n1")
        bed.start()
        rollback = False
        last = node.clock.read_us()
        for _ in range(100):
            bed.run(0.25)
            current = node.clock.read_us()
            if current < last:
                rollback = True
                break
            last = current
        assert rollback or node.clock.epoch_us < 1_000_000  # fast clocks step back

    def test_replicas_still_disagree_at_microsecond_scale(self):
        """Even clocks synchronized to well under a millisecond return
        different values for the same logical operation — the intrinsic
        event-triggered problem the CTS solves."""
        bed = make_testbed(seed=122, epoch_spread_s=10.0)
        bed.record()
        bed.install_ntp(poll_interval_s=0.5, gain=0.7)
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="ntp")
        client = bed.client("n0")
        bed.start()
        bed.run(20.0)  # let discipline converge first
        call_n(bed, client, "svc", "get_time", 5)
        bed.run(0.05)
        readings = [
            [v.micros for _, _, _, v in r.time_source.recorder.readings][-5:]
            for r in bed.replicas("svc").values()
        ]
        disagreements = sum(
            1
            for i in range(5)
            if len({readings[r][i] for r in range(3)}) > 1
        )
        assert disagreements >= 4  # nearly every read differs somewhere
