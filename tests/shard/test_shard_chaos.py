"""Sharded chaos: DSL compilation, pinned schedule, and one full run."""

import pytest

from repro.chaos import load_scenario
from repro.chaos.scenario import compile_plan, scenario_from_dict
from repro.errors import ConfigurationError
from repro.shard import run_shard_chaos
from repro.shard.cluster import shard_nodes

from support import assert_verdict_keys  # noqa: E402 (tests/ on sys.path via conftest)

#: The canonical hash of examples/chaos_shards.json's compiled schedule.
#: It pins the shard-scoped partition expansion byte-for-byte: editing
#: the scenario, the shard node-naming scheme, or the DSL's partition
#: compilation will change it and must be a conscious decision.
PINNED_SCHEDULE_HASH = (
    "fc33a65abbb6987b0a9d4b4fff4ddd62eec0cc9d21e7349127ad7c692ecc11fd")


class TestShardScenarioDSL:
    def test_example_scenario_hash_is_pinned(self):
        scenario = load_scenario("examples/chaos_shards.json")
        assert scenario.shards == 3
        plan = compile_plan(scenario)
        assert plan.schedule_hash() == PINNED_SCHEDULE_HASH

    def test_shard_scoped_partition_expands_to_shard_nodes(self):
        scenario = scenario_from_dict({
            "name": "t",
            "shards": 2,
            "shard_size": 3,
            "duration": 2.0,
            "events": [{"at": 1.0, "partition": {"shards": [0]}}],
        })
        plan = compile_plan(scenario)
        event = plan.schedule()[0]
        components = event.target
        assert sorted(components[0]) == sorted(shard_nodes(0, 3))
        # Every non-partitioned node lands in the second component.
        assert sorted(components[1]) == sorted(shard_nodes(1, 3))

    def test_nodes_and_shards_are_mutually_exclusive(self):
        with pytest.raises(ConfigurationError):
            scenario_from_dict({
                "name": "t", "shards": 2, "nodes": ["n0"],
                "events": [],
            })

    def test_unknown_shard_in_partition_rejected(self):
        with pytest.raises(ConfigurationError):
            compile_plan(scenario_from_dict({
                "name": "t", "shards": 2, "duration": 2.0,
                "events": [{"at": 1.0, "partition": {"shards": [5]}}],
            }))

    def test_flat_scenario_requires_flat_runner(self):
        scenario = scenario_from_dict({
            "name": "t", "duration": 1.0, "events": [],
        })
        with pytest.raises(ConfigurationError):
            run_shard_chaos(scenario)


class TestShardChaosRun:
    def test_example_scenario_runs_clean(self):
        scenario = load_scenario("examples/chaos_shards.json")
        verdict = run_shard_chaos(scenario, seed=7)
        assert verdict["schedule_hash"] == PINNED_SCHEDULE_HASH
        assert verdict["ok"], verdict["oracle"]["violations"]
        assert_verdict_keys(verdict, "run_shard_chaos")
        assert verdict["faults_injected"] == 4
        assert verdict["faults_pending"] == 0
        assert verdict["clients"]["calls"] > 0
        assert verdict["oracle"]["replies_checked"] > 0
        assert verdict["oracle"]["shard_summaries_checked"] > 0
        # The built-in drill migrated sessions off shard 2 and back.
        assert verdict["migration_drill"]["removed"]
        assert verdict["migration_drill"]["restored"]
        assert verdict["migration_drill"]["migrations"] > 0
        envelope = verdict["overlay"]["skew_envelope"]
        assert envelope["samples"] > 0
        assert envelope["max_skew_us"] > 0
