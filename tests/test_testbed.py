"""Tests for the high-level Testbed assembly API."""

import pytest

from repro import Testbed
from repro.baselines import LocalClockSource
from repro.errors import ConfigurationError, WaitTimeout
from repro.sim import ClusterConfig

from support import ClockApp, call_n  # noqa: E402  (tests/ is on sys.path)


class TestDeployment:
    def test_default_testbed_is_paper_shaped(self):
        bed = Testbed()
        assert sorted(bed.processors) == ["n0", "n1", "n2", "n3"]
        assert sorted(bed.runtimes) == ["n0", "n1", "n2", "n3"]

    def test_unknown_style_rejected(self):
        bed = Testbed()
        with pytest.raises(ConfigurationError, match="unknown style"):
            bed.deploy("svc", ClockApp, ["n1"], style="byzantine")

    def test_unknown_time_source_rejected(self):
        bed = Testbed()
        with pytest.raises(ConfigurationError, match="unknown time source"):
            bed.deploy("svc", ClockApp, ["n1"], time_source="sundial")

    def test_duplicate_group_rejected(self):
        bed = Testbed()
        bed.deploy("svc", ClockApp, ["n1"])
        with pytest.raises(ConfigurationError, match="already deployed"):
            bed.deploy("svc", ClockApp, ["n2"])

    def test_cts_mode_follows_style(self):
        # Every active replica competes for a round; in passive and
        # semi-active groups only the primary sends CCS messages.
        bed = Testbed()
        nodes = ["n1", "n2", "n3"]
        for style in ("active", "passive", "semi-active"):
            bed.deploy(style, ClockApp, nodes, style=style, time_source="cts")
        client = bed.client("n0")
        bed.start()
        for style in ("active", "passive", "semi-active"):
            replicas = bed.replicas(style).values()
            before = {r.node_id: r.time_source.stats.ccs_sent for r in replicas}
            call_n(bed, client, style, "get_time", 5)
            grew = {r.node_id for r in replicas
                    if r.time_source.stats.ccs_sent > before[r.node_id]}
            if style == "active":
                assert len(grew) > 1
            else:
                assert grew == {r.node_id for r in replicas if r.is_primary}

    def test_custom_time_source_factory(self):
        bed = Testbed()
        created = []

        def factory(replica):
            source = LocalClockSource(replica)
            created.append(source)
            return source

        bed.deploy("svc", ClockApp, ["n1"], time_source=factory)
        assert len(created) == 1
        assert bed.replicas("svc")["n1"].time_source is created[0]

    def test_the_bed_decides_whether_a_replica_overlaps_reads(self):
        # ``coalesce`` is the replica's option, decided where the bed
        # builds it together with the style's ``supports_pipelining``;
        # a baseline's replicas run serially whatever it says.
        bed = Testbed()
        deployments = {
            "cts": {},
            "cts-serial": {"coalesce": False},
            "passive": {"style": "passive"},
            "local": {"time_source": "local", "coalesce": True},
            "ntp": {"time_source": "ntp"},
            "local-class": {"time_source": LocalClockSource},
            "primary-backup": {"time_source": "primary-backup"},
        }
        serial = {group: bed.deploy(group, ClockApp, ["n1"],
                                    **options)["n1"]._serial
                  for group, options in deployments.items()}
        assert serial == {"cts": False, "cts-serial": True, "passive": True,
                          "local": True, "ntp": True, "local-class": True,
                          "primary-backup": True}
        client = bed.client("n0")
        bed.start()
        assert len(call_n(bed, client, "local", "get_time", 2)) == 2

    def test_deploy_after_start(self):
        bed = Testbed(seed=3)
        bed.start()
        bed.deploy("late", ClockApp, ["n1", "n2"], time_source="local")
        client = bed.client("n0")
        bed.run(0.3)
        values = call_n(bed, client, "late", "get_time", 2)
        assert len(values) == 2

    def test_start_is_idempotent(self):
        bed = Testbed()
        bed.start()
        bed.start()  # no error


class TestWaitUntil:
    def test_runs_the_simulator_in_poll_steps(self):
        # The wait every bed has: on the simulator it advances virtual
        # time by ``poll`` per step, exactly as ``bed.run(poll)`` does.
        bed = Testbed(seed=6)
        bed.start()
        ends = bed.sim.now + 0.075
        elapsed = bed.wait_until(lambda: bed.sim.now > ends, poll=0.05)
        assert elapsed == pytest.approx(0.1)
        started = bed.sim.now
        with pytest.raises(WaitTimeout):
            bed.wait_until(lambda: False, timeout=0.2, poll=0.05)
        assert bed.sim.now - started == pytest.approx(0.25)


class TestFailureHelpers:
    def test_crash_removes_replica_entry(self):
        bed = Testbed(seed=4)
        bed.deploy("svc", ClockApp, ["n1", "n2"], time_source="local")
        bed.start()
        bed.crash("n1")
        assert "n1" not in bed.replicas("svc")
        assert not bed.cluster.node("n1").alive

    def test_recover_rebuilds_protocol_stack(self):
        bed = Testbed(seed=5)
        bed.deploy("svc", ClockApp, ["n1", "n2"], time_source="local")
        bed.start()
        old_processor = bed.processors["n1"]
        bed.crash("n1")
        bed.run(0.3)
        bed.recover("n1")
        assert bed.processors["n1"] is not old_processor
        assert bed.cluster.node("n1").alive
        bed.run(0.5)
        assert bed.processors["n1"].is_operational

    def test_old_processor_stays_dead_after_a_quick_restart(self):
        # Fail-stop: an outage shorter than every Totem timer leaves the
        # crashed processor's timers queued on the kernel.  They must
        # find it stopped, not resume beside the processor the restart
        # built (a second "n1" reporting token losses, forming singleton
        # rings and reusing ring ids).
        bed = Testbed(seed=5)
        bed.start()
        old_processor = bed.processors["n1"]
        ring_at_crash = old_processor.ring.ring_id
        bed.crash("n1")
        bed.run(0.0005)
        bed.recover("n1")
        assert not old_processor.alive
        assert bed.processors["n1"].alive
        bed.run(1.0)
        assert old_processor.ring.ring_id == ring_at_crash
        rings = {p.ring.ring_id for p in bed.processors.values()}
        assert len(rings) == 1
        assert all(p.is_operational and len(p.members) == 4
                   for p in bed.processors.values())

    @pytest.mark.parametrize("node_id", ["n0", "n1"])
    def test_a_stopped_processor_leaves_nothing_armed(self, node_id):
        # The restart stops the crashed processor (n0 is the ring
        # representative, so it also beacons): every timer of it and of
        # its membership engine is disarmed, and none of their callbacks
        # runs again — not even as a no-op that re-checks ``alive``.
        bed = Testbed(seed=5)
        bed.start()
        old = bed.processors[node_id]
        engine = old.membership
        timers = [old._token_loss, old._retransmit, old._beacon,
                  engine._join_tick, engine._commit_loss,
                  engine._commit_retransmit]
        assert old._token_loss.armed
        bed.crash(node_id)
        bed.run(0.0005)  # well inside the 5 ms token-loss timeout
        bed.recover(node_id)
        assert not old.started
        assert not any(timer.armed for timer in timers)
        ran = []
        for timer in timers:
            timer.fn = lambda fn=timer.fn: ran.append(fn.__name__)
        bed.run(0.5)
        assert ran == []
        assert all(p.is_operational and len(p.members) == 4
                   for p in bed.processors.values())
