"""Live reconfiguration on the simulated testbed: join, drain, restart."""

import pytest

from repro.control import ControlPlane, ReconfigurationError

from ..support import ClockApp, CounterApp, call_n, make_testbed


def make_plane(bed):
    # Joiners are built as the group was deployed: the plane needs no
    # application or time-source arguments of its own.
    return ControlPlane(bed, group="svc")


class TestJoin:
    def test_cold_replica_joins_and_serves(self):
        bed = make_testbed(seed=40)
        bed.deploy("svc", CounterApp, ["n1", "n2"], time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "increment", 5)

        plane = make_plane(bed)
        joiner = plane.join("n3")
        assert joiner.state_transfer.ready
        assert joiner.app.count == 5
        assert plane.serving() == ["n1", "n2", "n3"]
        for node_id in ("n1", "n2", "n3"):
            assert "n3" in plane.view_members(node_id)
        # The joiner executes subsequent ordered work.
        call_n(bed, client, "svc", "increment", 2)
        bed.run(0.2)
        assert joiner.app.count == 7

    def test_join_is_idempotent(self):
        bed = make_testbed(seed=41)
        bed.deploy("svc", CounterApp, ["n1", "n2"], time_source="local")
        bed.start()
        plane = make_plane(bed)
        existing = bed.replicas("svc")["n1"]
        assert plane.join("n1") is existing
        assert plane.log == []

    def test_join_with_cts_rounds(self):
        """A CTS joiner is not 'caught up' until it has won fresh rounds
        of its own (the tentpole's shadow-then-serve gate)."""
        bed = make_testbed(seed=42)
        bed.deploy("svc", ClockApp, ["n1", "n2"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "get_time", 3)

        plane = make_plane(bed)

        # Rounds are request-driven: keep traffic flowing while the
        # control plane waits for the joiner to win rounds of its own.
        def traffic():
            for _ in range(200):
                result, _latency = yield from client.timed_call(
                    "svc", "get_time", timeout=2.0)
                assert result.ok, result.error

        bed.sim.process(traffic(), name="join-traffic")
        joiner = plane.join("n3", require_rounds=2)
        assert joiner.state_transfer.ready
        assert joiner.time_source.stats.rounds_completed >= 2
        values = call_n(bed, client, "svc", "get_time", 3)
        assert values == sorted(values)


class TestDrain:
    def test_drain_retires_replica_without_breaking_group(self):
        bed = make_testbed(seed=43)
        bed.deploy("svc", CounterApp, ["n1", "n2", "n3"],
                   time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "increment", 3)

        plane = make_plane(bed)
        drained = bed.replicas("svc")["n2"]
        plane.drain("n2")
        assert plane.serving() == ["n1", "n3"]
        assert drained.suspended
        for node_id in ("n1", "n3"):
            assert "n2" not in plane.view_members(node_id)
        # Clients keep getting answers from the survivors.
        values = call_n(bed, client, "svc", "increment", 2)
        assert values == [4, 5]
        bed.run(0.2)
        assert drained.app.count == 3  # retired replica saw nothing new

    def test_drain_primary_hands_over(self):
        """Draining the view's first member (the primary under
        deterministic succession) must not stall ordering."""
        bed = make_testbed(seed=44)
        bed.deploy("svc", CounterApp, ["n1", "n2", "n3"],
                   time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "increment", 2)
        plane = make_plane(bed)
        primary = plane.view_members("n1")[0]
        plane.drain(primary)
        values = call_n(bed, client, "svc", "increment", 2)
        assert values == [3, 4]

    def test_refuses_to_drain_last_replica(self):
        bed = make_testbed(seed=45)
        bed.deploy("svc", CounterApp, ["n1"], time_source="local")
        bed.start()
        plane = make_plane(bed)
        with pytest.raises(ReconfigurationError):
            plane.drain("n1")

    def test_refuses_to_drain_non_member(self):
        bed = make_testbed(seed=46)
        bed.deploy("svc", CounterApp, ["n1", "n2"], time_source="local")
        bed.start()
        plane = make_plane(bed)
        with pytest.raises(ReconfigurationError):
            plane.drain("n3")

    def test_drained_node_can_rejoin(self):
        bed = make_testbed(seed=47)
        bed.deploy("svc", CounterApp, ["n1", "n2", "n3"],
                   time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "increment", 2)
        plane = make_plane(bed)
        plane.drain("n3")
        call_n(bed, client, "svc", "increment", 2)
        rejoined = plane.join("n3")
        assert rejoined.state_transfer.ready
        assert rejoined.app.count == 4
        assert [entry["op"] for entry in plane.log] == ["drain", "join"]


class TestAsyncHooks:
    def test_drain_async_finalizes_after_grace(self):
        bed = make_testbed(seed=48)
        bed.deploy("svc", CounterApp, ["n1", "n2", "n3"],
                   time_source="local")
        bed.start()
        plane = make_plane(bed)
        assert plane.drain_async("n2") is True
        assert "n2" in plane.serving()  # not yet finalized
        bed.run(1.0)
        assert plane.serving() == ["n1", "n3"]

    def test_drain_async_refuses_unsafe(self):
        bed = make_testbed(seed=49)
        bed.deploy("svc", CounterApp, ["n1"], time_source="local")
        bed.start()
        plane = make_plane(bed)
        assert plane.drain_async("n1") is False
        assert plane.drain_async("n2") is False

    def test_join_async_starts_admission(self):
        bed = make_testbed(seed=50)
        bed.deploy("svc", CounterApp, ["n1", "n2"], time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "increment", 3)
        plane = make_plane(bed)
        assert plane.join_async("n3") is True
        assert plane.join_async("n3") is False  # already admitted
        bed.run(1.0)
        joiner = bed.replicas("svc")["n3"]
        assert joiner.state_transfer.ready
        assert joiner.app.count == 3


class TestRestart:
    def test_restart_preserves_state_and_readmits(self):
        bed = make_testbed(seed=51)
        bed.deploy("svc", CounterApp, ["n1", "n2", "n3"],
                   time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "increment", 4)

        plane = make_plane(bed)
        recovered = plane.restart_node("n2")
        assert recovered.state_transfer.ready
        assert recovered.app.count == 4
        assert plane.serving() == ["n1", "n2", "n3"]
        values = call_n(bed, client, "svc", "increment", 1)
        assert values == [5]
        assert [entry["op"] for entry in plane.log] == \
            ["drain", "join"]

    def test_status_reports_views_and_readiness(self):
        bed = make_testbed(seed=52)
        bed.deploy("svc", CounterApp, ["n1", "n2"], time_source="local")
        bed.start()
        plane = make_plane(bed)
        status = plane.status()
        assert status["serving"] == ["n1", "n2"]
        assert all(status["ready"].values())
        assert set(status["views"]) >= {"n1", "n2"}
