"""Tests for declarative fault injection."""

import pytest

from repro.chaos.scenario import ChaosScenario, compile_plan
from repro.errors import ConfigurationError
from repro.sim import FaultPlan
from repro.sim.faults import FAULT_KINDS

from support import ClockApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


class Recording:
    """Stands in for a bed, its chaos transport, its cluster's network
    and a control plane: records every method call made on it as
    ``(name, arguments)``."""

    def __init__(self):
        self.calls = []
        # The stub bed's chaos transport and cluster network are the stub.
        self.chaos = self.cluster = self.network = self

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.calls.append((name, args + tuple(kwargs.values())))
        return record


#: kind -> (scenario event, compiled target, canonical form).  One row
#: per scenario kind: a new FAULT_KINDS entry must add its row here.
KIND_SAMPLES = {
    "crash": ({"crash": "n1"}, ("n1",), "1.0 crash ['n1']"),
    "recover": ({"recover": "n1"}, ("n1",), "1.0 recover ['n1']"),
    "isolate": ({"isolate": "n1"}, ("n1",), "1.0 isolate ['n1']"),
    "heal": ({"heal": True}, (), "1.0 heal []"),
    "partition": ({"partition": [["n1", "n0"], ["n2"]]},
                  (frozenset({"n0", "n1"}), frozenset({"n2"})),
                  "1.0 partition [{n0,n1} {n2}]"),
    "drop": ({"drop": 0.05, "src": "n0"}, (0.05, "n0", None),
             "1.0 drop [0.05 'n0' None]"),
    "delay": ({"delay": 0.2, "jitter": 0.1, "dst": "n2"},
              (0.2, 0.1, None, "n2"), "1.0 delay [0.2 0.1 None 'n2']"),
    "duplicate": ({"duplicate": 1}, (1.0, None, None),
                  "1.0 duplicate [1.0 None None]"),
    "reorder": ({"reorder": 0.3}, (0.3, 0.01, None, None),
                "1.0 reorder [0.3 0.01 None None]"),
    "lie": ({"lie": "n1", "bias": 50_000}, ("n1", 50_000),
            "1.0 lie ['n1' 50000]"),
    "equivocate": ({"equivocate": "n1"}, ("n1", 0),
                   "1.0 equivocate ['n1' 0]"),
    "corrupt-state": ({"corrupt-state": "n1"}, ("n1",),
                      "1.0 corrupt-state ['n1']"),
    "drain": ({"drain": "n1"}, ("n1",), "1.0 drain ['n1']"),
    "join": ({"join": "n1"}, ("n1",), "1.0 join ['n1']"),
}


class TestFaultKindsTable:
    """Each kind is declared once: its table entry carries it from a
    scenario mapping to a validated, injected event."""

    def test_every_kind_is_sampled(self):
        # `call` takes a Python callable, so no scenario can name it.
        assert set(KIND_SAMPLES) | {"call"} == set(FAULT_KINDS)
        assert FAULT_KINDS["call"].args is None

    @pytest.mark.parametrize("kind", sorted(KIND_SAMPLES))
    def test_scenario_to_injection(self, kind):
        mapping, target, canonical = KIND_SAMPLES[kind]
        scenario = ChaosScenario("t", ["n0", "n1", "n2"], 2.0,
                                 events=[{"at": 1, **mapping}])
        plan = compile_plan(scenario)
        (event,) = plan.schedule()
        assert (event.kind, event.target) == (kind, target)
        assert event.canonical() == canonical

        # A bed lacking what the kind needs rejects it at arm time.
        needs = FAULT_KINDS[kind].needs
        if needs is not None:
            bed = make_testbed(seed=171)  # no chaos transport, no plane
            with pytest.raises(ConfigurationError,
                               match={"chaos": "chaos transport",
                                      "control": "control plane"}[needs]):
                plan.arm(bed)

        # The injector is called with exactly the target, on the surface
        # the kind declared.
        surface, seen = Recording(), []
        plan._inject(surface, event, control=surface, after=seen.append)
        ((_method, arguments),) = surface.calls
        assert arguments == target
        assert plan.injected == seen == [event]



class TestFaultPlanConstruction:
    def test_fluent_building(self):
        plan = (
            FaultPlan()
            .crash("n1", at=0.01)
            .partition({"n0"}, {"n2", "n3"}, at=0.02)
            .heal(at=0.03)
            .recover("n1", at=0.04)
        )
        assert [e.kind for e in plan.events] == [
            "crash", "partition", "heal", "recover",
        ]

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan().crash("n1", at=-1.0)

    def test_cannot_extend_after_arming(self):
        bed = make_testbed(seed=160)
        plan = FaultPlan().crash("n1", at=0.01).arm(bed)
        with pytest.raises(ConfigurationError):
            plan.crash("n2", at=0.02)

    def test_double_arm_rejected(self):
        bed = make_testbed(seed=161)
        plan = FaultPlan().heal(at=0.01)
        plan.arm(bed)
        with pytest.raises(ConfigurationError):
            plan.arm(bed)


class TestValidation:
    def test_crash_unknown_node_rejected_at_arm(self):
        bed = make_testbed(seed=166)
        plan = FaultPlan().crash("n9", at=0.01)
        with pytest.raises(ConfigurationError, match="unknown node 'n9'"):
            plan.arm(bed)

    def test_recover_unknown_node_rejected_at_arm(self):
        bed = make_testbed(seed=166)
        plan = FaultPlan().recover("nope", at=0.01)
        with pytest.raises(ConfigurationError, match="unknown node"):
            plan.arm(bed)

    def test_partition_unknown_member_rejected_at_arm(self):
        bed = make_testbed(seed=166)
        plan = FaultPlan().partition({"n0", "n1"}, {"n2", "n7"}, at=0.01)
        with pytest.raises(ConfigurationError, match=r"\['n7'\]"):
            plan.arm(bed)

    def test_rejected_plan_schedules_nothing(self):
        bed = make_testbed(seed=166)
        plan = FaultPlan().heal(at=0.01).crash("n9", at=0.02)
        with pytest.raises(ConfigurationError):
            plan.arm(bed)
        bed.run(0.05)
        assert plan.injected == []
        # The plan stays un-armed, so it can be fixed and re-armed.
        assert not plan._armed

    def test_overlapping_partition_components_rejected(self):
        bed = make_testbed(seed=168)
        plan = FaultPlan().partition({"n0", "n1"}, {"n1", "n2"}, at=0.01)
        with pytest.raises(ConfigurationError,
                           match="more than one partition component"):
            plan.arm(bed)

    def test_crash_of_already_crashed_node_rejected(self):
        bed = make_testbed(seed=168)
        plan = FaultPlan().crash("n1", at=0.01).crash("n1", at=0.02)
        with pytest.raises(ConfigurationError, match="already crashed"):
            plan.arm(bed)

    def test_recover_of_never_crashed_node_rejected(self):
        bed = make_testbed(seed=168)
        plan = FaultPlan().recover("n1", at=0.01)
        with pytest.raises(ConfigurationError, match="not crashed"):
            plan.arm(bed)

    def test_crash_recover_crash_cycle_is_legal(self):
        bed = make_testbed(seed=168)
        plan = (FaultPlan()
                .crash("n1", at=0.01)
                .recover("n1", at=0.02)
                .crash("n1", at=0.03))
        plan.arm(bed)  # must not raise
        assert len(plan.events) == 3

    def test_live_only_event_rejected_on_simulated_bed(self):
        bed = make_testbed(seed=168)
        plan = FaultPlan().drop(0.1, at=0.01)
        with pytest.raises(ConfigurationError, match="chaos transport"):
            plan.arm(bed)

    def test_event_on_crashed_node_rejected(self):
        bed = make_testbed(seed=168)
        # Validation-only stand-in for a chaos transport, so the
        # live-only gate admits `isolate` and the crashed-node check runs.
        bed.chaos = object()
        plan = FaultPlan().crash("n1", at=0.01).isolate("n1", at=0.02)
        with pytest.raises(ConfigurationError, match="already crashed"):
            plan.arm(bed)

    def test_drain_requires_a_control_plane(self):
        bed = make_testbed(seed=169)
        plan = FaultPlan().drain("n1", at=0.01)
        with pytest.raises(ConfigurationError, match="control plane"):
            plan.arm(bed)

    def test_join_requires_a_control_plane(self):
        bed = make_testbed(seed=169)
        plan = FaultPlan().join("n1", at=0.01)
        with pytest.raises(ConfigurationError, match="control plane"):
            plan.arm(bed)

    def test_join_after_crash_is_legal(self):
        # A join recovers a crashed node, so later events may target it.
        bed = make_testbed(seed=169)
        plan = (FaultPlan()
                .crash("n1", at=0.01)
                .join("n1", at=0.02)
                .crash("n1", at=0.03))
        plan.arm(bed, control=Recording())  # must not raise
        assert len(plan.events) == 3

    def test_rates_must_be_probabilities(self):
        for build in (
            lambda p: p.drop(1.5, at=0.01),
            lambda p: p.drop(-0.1, at=0.01),
            lambda p: p.duplicate(2.0, at=0.01),
            lambda p: p.reorder(-1.0, at=0.01),
        ):
            with pytest.raises(ConfigurationError, match=r"\[0, 1\]"):
                build(FaultPlan())
        with pytest.raises(ConfigurationError, match="non-negative"):
            FaultPlan().delay(-0.5, at=0.01)

    def test_absolute_time_in_past_rejected(self):
        bed = make_testbed(seed=167)
        bed.run(0.1)
        plan = FaultPlan().crash("n1", at=0.05)
        with pytest.raises(ConfigurationError, match="in the past"):
            plan.arm(bed, absolute=True)

    def test_absolute_times_fire_at_kernel_time(self):
        bed = make_testbed(seed=167)
        bed.run(0.1)
        fired = []
        plan = FaultPlan().call(lambda: fired.append(bed.sim.now), at=0.15)
        plan.arm(bed, absolute=True)
        bed.run(0.1)
        assert fired == [pytest.approx(0.15)]
        assert plan.done


class TestReproducibility:
    @staticmethod
    def forward():
        return (FaultPlan()
                .drop(0.05, at=1.0)
                .partition({"n0", "n1"}, {"n2"}, at=2.5)
                .heal(at=4.5)
                .crash("n0", at=5.5)
                .recover("n0", at=7.5))

    def test_build_order_does_not_change_the_hash(self):
        shuffled = (FaultPlan()
                    .recover("n0", at=7.5)
                    .heal(at=4.5)
                    .crash("n0", at=5.5)
                    .drop(0.05, at=1.0)
                    .partition({"n0", "n1"}, {"n2"}, at=2.5))
        assert self.forward().schedule_hash() == shuffled.schedule_hash()

    def test_hash_is_stable_across_instances(self):
        assert self.forward().schedule_hash() == self.forward().schedule_hash()

    def test_any_event_change_changes_the_hash(self):
        base = self.forward().schedule_hash()
        later = (FaultPlan()
                 .drop(0.05, at=1.1)
                 .partition({"n0", "n1"}, {"n2"}, at=2.5)
                 .heal(at=4.5)
                 .crash("n0", at=5.5)
                 .recover("n0", at=7.5))
        assert later.schedule_hash() != base

    def test_partition_member_order_is_canonicalized(self):
        a = FaultPlan().partition({"n1", "n0"}, {"n2"}, at=1.0)
        b = FaultPlan().partition({"n0", "n1"}, {"n2"}, at=1.0)
        assert a.schedule_hash() == b.schedule_hash()

    def test_schedule_is_sorted_by_time_stably(self):
        plan = (FaultPlan()
                .heal(at=0.5)
                .crash("n1", at=0.1)
                .partition({"n0"}, {"n1"}, at=0.1))
        assert [e.kind for e in plan.schedule()] == [
            "crash", "partition", "heal"]


class TestInjection:
    def test_crash_injected_at_time(self):
        bed = make_testbed(seed=162)
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="local")
        bed.start()
        plan = FaultPlan().crash("n2", at=0.05).arm(bed)
        assert bed.cluster.node("n2").alive
        bed.run(0.1)
        assert not bed.cluster.node("n2").alive
        assert plan.done

    def test_partition_and_heal(self):
        bed = make_testbed(seed=163)
        bed.start()
        plan = (
            FaultPlan()
            .partition({"n0", "n1"}, {"n2", "n3"}, at=0.01)
            .heal(at=0.05)
            .arm(bed)
        )
        bed.run(0.02)
        assert not bed.cluster.network.reachable("n0", "n2")
        bed.run(0.08)
        assert bed.cluster.network.reachable("n0", "n2")
        assert plan.done

    def test_crash_recover_cycle_service_survives(self):
        bed = make_testbed(seed=164)
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        before = call_n(bed, client, "svc", "get_time", 3)
        FaultPlan().crash("n3", at=0.01).recover("n3", at=0.5).arm(bed)
        bed.run(1.2)
        after = call_n(bed, client, "svc", "get_time", 3)
        sequence = before + after
        assert all(b > a for a, b in zip(sequence, sequence[1:]))

    def test_custom_callback(self):
        bed = make_testbed(seed=165)
        fired = []
        FaultPlan().call(lambda: fired.append(bed.sim.now), at=0.02).arm(bed)
        bed.run(0.05)
        assert fired == [pytest.approx(0.02)]

    def test_drain_and_join_dispatch_to_control_hooks(self):
        bed = make_testbed(seed=170)
        control = Recording()
        plan = (FaultPlan()
                .drain("n2", at=0.01)
                .join("n2", at=0.03)
                .arm(bed, control=control))
        bed.run(0.05)
        assert control.calls == [("drain_async", ("n2",)),
                                 ("join_async", ("n2",))]
        assert plan.done
