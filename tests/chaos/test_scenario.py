"""Scenario files: validation and the compile-to-FaultPlan path with
its reproducibility pin."""

import json
from pathlib import Path

import pytest

from repro.chaos.scenario import (
    ChaosScenario,
    compile_plan,
    load_scenario,
    scenario_from_dict,
)
from repro.errors import ConfigurationError

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
EXAMPLE = EXAMPLES / "chaos_partition.json"
BYZANTINE_EXAMPLE = EXAMPLES / "chaos_byzantine.json"

#: The committed scenario's seeded schedule digest.  If this changes,
#: every recorded chaos verdict stops being reproducible — update the
#: EXPERIMENTS.md entry in the same commit, or don't change the hash.
EXAMPLE_SCHEDULE_HASH = (
    "f49fc35322afb80ab08a11bc06987fdaa54e9ef93b8c8ed77eb9766abdc8fc0f")

#: Same pin for the Byzantine scenario.  This one also guards the
#: canonicalization of the lie/equivocate/corrupt-state event kinds:
#: their targets must keep hashing exactly as they do today.
BYZANTINE_SCHEDULE_HASH = (
    "8de80eefae409ad746c4f4af387482a5d70fe63e20f93379432f5e0f677a1dab")

RECONFIG_EXAMPLE = EXAMPLES / "chaos_reconfig.json"

#: Pin for the reconfiguration scenario: guards the drain/join event
#: kinds' canonical form alongside the schedule itself.
RECONFIG_SCHEDULE_HASH = (
    "152dc353661ce867fbdb380e6a59ddc2a56978dddbcf86472e112e9054cb36c2")


class TestScenarioValidation:
    def base(self, **overrides):
        data = {"name": "t", "nodes": 3, "duration": 5.0, "clients": 1,
                "events": [{"at": 1.0, "crash": "n0"}]}
        data.update(overrides)
        return data

    def test_int_nodes_expand_to_ids(self):
        scenario = scenario_from_dict(self.base(nodes=4))
        assert scenario.node_ids == ["n0", "n1", "n2", "n3"]

    def test_explicit_node_list_kept(self):
        scenario = scenario_from_dict(self.base(nodes=["a", "b"]))
        assert scenario.node_ids == ["a", "b"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario key"):
            scenario_from_dict(self.base(chaos_level=11))

    def test_bad_nodes_rejected(self):
        with pytest.raises(ConfigurationError, match="nodes"):
            scenario_from_dict(self.base(nodes=0))
        with pytest.raises(ConfigurationError, match="nodes"):
            scenario_from_dict(self.base(nodes=[1, 2]))
        with pytest.raises(ConfigurationError, match="nodes"):
            scenario_from_dict(self.base(nodes=[]))
        with pytest.raises(ConfigurationError, match="nodes"):
            scenario_from_dict(self.base(nodes=["n0", "n0", "n1"]))

    def test_bad_duration_rejected(self):
        with pytest.raises(ConfigurationError, match="duration"):
            scenario_from_dict(self.base(duration=0))

    def test_bad_clients_rejected(self):
        with pytest.raises(ConfigurationError, match="clients"):
            scenario_from_dict(self.base(clients=0))

    def test_event_missing_at_rejected(self):
        with pytest.raises(ConfigurationError, match="missing 'at'"):
            scenario_from_dict(self.base(events=[{"crash": "n0"}]))

    def test_event_needs_exactly_one_kind(self):
        with pytest.raises(ConfigurationError, match="exactly one"):
            scenario_from_dict(self.base(events=[{"at": 1.0}]))
        with pytest.raises(ConfigurationError, match="exactly one"):
            scenario_from_dict(
                self.base(events=[{"at": 1.0, "crash": "n0", "heal": True}]))

    def test_non_mapping_scenario_rejected(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            scenario_from_dict([1, 2, 3])


class TestCompile:
    def test_example_compiles_to_expected_kinds(self):
        scenario = load_scenario(EXAMPLE)
        plan = compile_plan(scenario)
        assert [e.kind for e in plan.schedule()] == [
            "drop", "partition", "heal", "crash", "recover"]

    def test_partition_must_be_list_of_lists(self):
        scenario = scenario_from_dict({
            "events": [{"at": 1.0, "partition": ["n0", "n1"]}]})
        with pytest.raises(ConfigurationError, match="list of node lists"):
            compile_plan(scenario)

    def test_compile_error_names_the_event(self):
        scenario = scenario_from_dict({"events": [{"at": 1.0, "drop": 1.5}]})
        with pytest.raises(ConfigurationError, match="event #0"):
            compile_plan(scenario)

    def test_byzantine_example_compiles_to_expected_kinds(self):
        scenario = load_scenario(BYZANTINE_EXAMPLE)
        assert scenario.auth is True
        plan = compile_plan(scenario)
        assert [e.kind for e in plan.schedule()] == [
            "lie", "equivocate", "corrupt-state", "lie", "equivocate"]

    def test_lie_event_carries_node_and_bias(self):
        scenario = scenario_from_dict({
            "events": [{"at": 1.0, "lie": "n2", "bias": 50_000}]})
        (event,) = compile_plan(scenario).schedule()
        assert event.kind == "lie"
        assert event.target == ("n2", 50_000)

    def test_equivocate_event_carries_node_and_spread(self):
        scenario = scenario_from_dict({
            "events": [{"at": 1.0, "equivocate": "n2", "spread": 80_000}]})
        (event,) = compile_plan(scenario).schedule()
        assert event.kind == "equivocate"
        assert event.target == ("n2", 80_000)

    def test_corrupt_state_event_carries_node(self):
        scenario = scenario_from_dict({
            "events": [{"at": 1.0, "corrupt-state": "n1"}]})
        (event,) = compile_plan(scenario).schedule()
        assert event.kind == "corrupt-state"
        assert event.target == ("n1",)

    def test_reconfig_example_compiles_to_expected_kinds(self):
        scenario = load_scenario(RECONFIG_EXAMPLE)
        plan = compile_plan(scenario)
        assert [e.kind for e in plan.schedule()] == [
            "drop", "drain", "join", "crash", "join", "drain"]

    def test_drain_event_carries_node(self):
        scenario = scenario_from_dict({
            "events": [{"at": 1.0, "drain": "n2"}]})
        (event,) = compile_plan(scenario).schedule()
        assert event.kind == "drain"
        assert event.target == ("n2",)

    def test_join_event_carries_node(self):
        scenario = scenario_from_dict({
            "events": [{"at": 1.0, "join": "n2"}]})
        (event,) = compile_plan(scenario).schedule()
        assert event.kind == "join"
        assert event.target == ("n2",)

    def test_auth_defaults_off(self):
        scenario = scenario_from_dict({
            "events": [{"at": 1.0, "crash": "n0"}]})
        assert scenario.auth is False

    def test_json_scenario_loads(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({
            "name": "from-json", "nodes": 2, "duration": 1.0,
            "events": [{"at": 0.5, "crash": "n0"}]}))
        scenario = load_scenario(path)
        assert scenario.name == "from-json"
        assert compile_plan(scenario).schedule()[0].kind == "crash"


class TestReproducibilityPin:
    def test_example_schedule_hash_is_pinned(self):
        plan = compile_plan(load_scenario(EXAMPLE))
        assert plan.schedule_hash() == EXAMPLE_SCHEDULE_HASH

    def test_recompilation_is_byte_identical(self):
        first = compile_plan(load_scenario(EXAMPLE))
        second = compile_plan(load_scenario(EXAMPLE))
        assert ([e.canonical() for e in first.schedule()]
                == [e.canonical() for e in second.schedule()])
        assert first.schedule_hash() == second.schedule_hash()

    def test_byzantine_schedule_hash_is_pinned(self):
        plan = compile_plan(load_scenario(BYZANTINE_EXAMPLE))
        assert plan.schedule_hash() == BYZANTINE_SCHEDULE_HASH

    def test_reconfig_schedule_hash_is_pinned(self):
        plan = compile_plan(load_scenario(RECONFIG_EXAMPLE))
        assert plan.schedule_hash() == RECONFIG_SCHEDULE_HASH

    def test_byzantine_kinds_hash_canonically(self):
        # The generic FaultEvent.canonical() must keep covering the new
        # kinds: a changed magnitude or target must change the digest,
        # and identical schedules must collide.
        base = ChaosScenario("t", ["n0", "n1"], 1.0, events=[
            {"at": 1.0, "lie": "n1", "bias": 50_000}])
        same = ChaosScenario("t", ["n0", "n1"], 1.0, events=[
            {"at": 1.0, "lie": "n1", "bias": 50_000}])
        rebias = ChaosScenario("t", ["n0", "n1"], 1.0, events=[
            {"at": 1.0, "lie": "n1", "bias": 50_001}])
        renode = ChaosScenario("t", ["n0", "n1"], 1.0, events=[
            {"at": 1.0, "lie": "n0", "bias": 50_000}])
        rekind = ChaosScenario("t", ["n0", "n1"], 1.0, events=[
            {"at": 1.0, "equivocate": "n1", "spread": 50_000}])
        digest = lambda s: compile_plan(s).schedule_hash()  # noqa: E731
        assert digest(base) == digest(same)
        assert len({digest(s)
                    for s in (base, rebias, renode, rekind)}) == 4

    def test_hash_sees_every_event_change(self):
        base = ChaosScenario("t", ["n0", "n1"], 1.0,
                             events=[{"at": 1.0, "drop": 0.05}])
        moved = ChaosScenario("t", ["n0", "n1"], 1.0,
                              events=[{"at": 1.5, "drop": 0.05}])
        retuned = ChaosScenario("t", ["n0", "n1"], 1.0,
                                events=[{"at": 1.0, "drop": 0.06}])
        hashes = {compile_plan(s).schedule_hash()
                  for s in (base, moved, retuned)}
        assert len(hashes) == 3
