"""Sharded loadgen: one small closed-loop run, reused across asserts.

The full 4-shard scaling measurement lives in CI's scenario-smoke (shard) job (and
in ``BENCH_throughput.json``); here a 2-shard run with a short measure
window pins the machinery — routing spread, zipf identities, the
envelope, and the bench JSON shape — without the multi-minute sim.
"""

import json
from pathlib import Path

import pytest

from repro.workloads import (
    ZipfPicker,
    append_run,
    run_loadgen_sharded,
    shard_scaling_run,
)


TRAJECTORY = Path(__file__).parents[2] / "BENCH_throughput.json"


@pytest.fixture(scope="module")
def small_run():
    # Thinking workers: at 2 workers/shard a fully closed loop is
    # saturation with spiky round latency (see run_loadgen_sharded's
    # docstring); this test pins machinery, not capacity.
    return run_loadgen_sharded(
        shards=2, shard_size=3, concurrency=2,
        duration_s=0.2, warmup_s=1.0, seed=2, think_s=0.002)


class TestSmallShardedRun:
    def test_every_shard_serves_calls(self, small_run):
        assert small_run.completed > 0
        assert small_run.errors == 0
        per_shard = small_run.extra["per_shard"]
        assert sorted(per_shard) == ["0", "1"]
        assert all(row["completed"] > 0 for row in per_shard.values())
        assert sum(row["completed"]
                   for row in per_shard.values()) == small_run.completed
        assert small_run.extra["clients"] == 4  # shards * concurrency

    def test_oracle_and_envelope_are_populated(self, small_run):
        oracle = small_run.extra["oracle"]
        assert oracle is not None
        assert oracle["ok"], oracle["violations"]
        assert small_run.extra["skew_envelope"]["samples"] > 0
        assert small_run.extra["summaries_sent"] > 0
        assert small_run.extra["summaries_received"] > 0

    def test_sticky_routing_never_migrates(self, small_run):
        assert small_run.extra["migrations"] == 0

    def test_result_dict_shape(self, small_run):
        doc = small_run.to_dict()
        assert doc["mode"] == "sharded"
        assert doc["shards"] == 2
        assert set(doc["per_shard"]) == {"0", "1"}
        assert doc["ops_per_s"] > 0
        assert doc["p50_us"] > 0
        assert doc["imbalance"] >= 1.0

    def test_dict_keeps_the_committed_trajectory_keys(self, small_run):
        committed = next(
            run for run in json.loads(TRAJECTORY.read_text())["runs"]
            if run.get("kind") == "shard-scaling")
        assert set(small_run.to_dict()) == set(committed["modes"]["sharded"])

    def test_bench_json_round_trip(self, small_run, tmp_path):
        path = tmp_path / "BENCH_throughput.json"
        append_run(path, shard_scaling_run(small_run, small_run))
        append_run(path, shard_scaling_run(small_run, small_run))  # appends
        doc = json.loads(path.read_text())
        assert doc["benchmark"] == "loadgen-throughput"
        assert len(doc["runs"]) == 2
        run = doc["runs"][-1]
        assert run["kind"] == "shard-scaling"
        assert run["scaling_vs_single_shard"] == 1.0
        assert run["skew_envelope"]["samples"] > 0
        assert run["modes"]["sharded"]["completed"] == small_run.completed


def zipf_identities(count, *, universe, s, rng):
    picker = ZipfPicker(universe, s, rng)
    return [picker.pick() for _ in range(count)]


class TestZipfIdentities:
    def test_deterministic_for_a_seed(self):
        import random
        a = zipf_identities(100, universe=20, s=1.2,
                            rng=random.Random(7))
        b = zipf_identities(100, universe=20, s=1.2,
                            rng=random.Random(7))
        assert a == b
        assert len(a) == 100
        assert all(0 <= identity < 20 for identity in a)

    def test_skew_concentrates_on_low_ranks(self):
        import random
        from collections import Counter
        draws = Counter(zipf_identities(
            5_000, universe=50, s=1.5, rng=random.Random(3)))
        # Rank 0 must dominate the tail decisively under s=1.5.
        assert draws[0] > 5 * max(draws.get(rank, 0)
                                  for rank in range(25, 50))

    def test_s_zero_is_uniformish(self):
        import random
        from collections import Counter
        draws = Counter(zipf_identities(
            5_000, universe=10, s=0.0, rng=random.Random(1)))
        assert min(draws.values()) > 300  # fair share is 500
