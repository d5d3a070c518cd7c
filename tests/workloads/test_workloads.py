"""Tests for the experiment workload generators (small sizes)."""

import pytest

from repro.workloads import (
    failover_comparison,
    run_failover_workload,
    run_latency_workload,
    run_recovery_workload,
    run_skew_drift_workload,
)


class TestLatencyWorkload:
    def test_collects_latencies(self):
        run = run_latency_workload(time_source="cts", invocations=50, seed=1)
        assert len(run.latencies_us) == 50
        assert all(lat > 0 for lat in run.latencies_us)
        assert run.mean_us > 0

    def test_ccs_counts_skewed_to_fast_replica(self):
        run = run_latency_workload(time_source="cts", invocations=100, seed=1)
        counts = sorted(run.ccs_transmitted.values(), reverse=True)
        # The fast replica (paper's n2) decides nearly every round.
        assert counts[0] >= 0.9 * sum(counts)
        assert sum(counts) == run.rounds

    def test_cts_adds_overhead(self):
        base = run_latency_workload(time_source="local", invocations=150, seed=2)
        with_cts = run_latency_workload(time_source="cts", invocations=150, seed=2)
        assert with_cts.mean_us > base.mean_us

    def test_baseline_has_no_ccs(self):
        run = run_latency_workload(time_source="local", invocations=20, seed=3)
        assert run.ccs_transmitted == {}
        assert run.rounds == 0


class TestSkewDriftWorkload:
    @pytest.fixture(scope="class")
    def result(self):
        return run_skew_drift_workload(rounds=120, seed=4)

    def test_round_counts(self, result):
        assert result.rounds == 120
        for series in result.series.values():
            assert len(series.history) == 120

    def test_every_series_times_cover_the_workload(self, result):
        """A replica's pre-workload readings (2 / 1 / 0 on n1 / n2 / n3)
        are not its pre-workload commits (2 each): each list is baselined
        by its own length, so no workload reading is dropped."""
        assert sorted(result.series) == ["n1", "n2", "n3"]
        for series in result.series.values():
            assert len(series.times_s) == len(series.history) == 120
            assert series.times_s == sorted(series.times_s)

    def test_synchronizer_rotates(self, result):
        counts = result.winner_counts()
        assert len(counts) >= 2  # more than one replica wins rounds
        assert sum(counts.values()) == 120

    def test_wire_economy(self, result):
        # Section 4.3: total CCS messages transmitted == rounds.
        assert result.total_transmitted == 120

    def test_intervals_in_expected_range(self, result):
        for series in result.series.values():
            for interval in series.physical_intervals():
                # busy loop 60-400us plus round latency, bounded sanity.
                assert 0 < interval < 5_000

    def test_group_clock_runs_slow(self, result):
        assert result.group_drift_ppm() < 0

    def test_offsets_trend_decreasing(self, result):
        for series in result.series.values():
            offsets = series.offsets()
            assert offsets[-1] <= offsets[0]

    def test_group_series_identical_across_replicas(self, result):
        groups = [
            [g for g, _, _ in s.history] for s in result.series.values()
        ]
        assert groups[0] == groups[1] == groups[2]


class TestFailoverWorkload:
    def test_cts_monotone(self):
        result = run_failover_workload(time_source="cts", seed=5)
        assert result.monotone
        assert not result.rolled_back

    def test_comparison_summary(self):
        summary = failover_comparison(range(10, 14), calls_each_side=3)
        assert summary["cts"]["non_monotone"] == 0
        assert summary["cts"]["worst_step_us"] > 0
        # The baseline misbehaves somewhere in the seed range.
        baseline = summary["primary-backup"]
        assert (
            baseline["rollbacks"] + baseline["fast_forwards"] > 0
            or baseline["worst_step_us"] <= 0
        )


class TestRecoveryWorkload:
    def test_integration_properties(self):
        result = run_recovery_workload(seed=6, calls_before=4, calls_after=4)
        assert result.monotone
        assert result.joiner_consistent
        assert result.recovery_adoptions >= 1
        assert result.joiner_count == result.member_count
        assert 0 < result.integration_time_s < 5.0


class TestThroughputWorkload:
    def test_point_counts(self):
        from repro.workloads import run_throughput_point

        point = run_throughput_point(
            time_source="local", offered_per_s=2_000, duration_s=0.1, seed=3
        )
        assert point.extra["issued"] == pytest.approx(200, abs=2)
        assert point.completed == point.extra["issued"]
        assert point.mean_us > 0
        assert not point.extra["saturated"]

    def test_cts_latency_grows_past_capacity(self):
        # Per-operation rounds (no coalescing): the round time caps the
        # sustainable rate, so pushing past it inflates latency.
        from repro.workloads import run_throughput_point

        calm = run_throughput_point(
            time_source="cts", offered_per_s=1_000, duration_s=0.1, seed=3,
            coalesce=False,
        )
        stormy = run_throughput_point(
            time_source="cts", offered_per_s=25_000, duration_s=0.1, seed=3,
            coalesce=False,
        )
        assert stormy.mean_us > 5 * calm.mean_us

    def test_coalescing_absorbs_the_same_storm(self):
        # Round amortization: the same offered rate that saturates the
        # per-op service is absorbed when concurrent operations share
        # rounds.
        from repro.workloads import run_throughput_point

        calm = run_throughput_point(
            time_source="cts", offered_per_s=1_000, duration_s=0.1, seed=3
        )
        stormy = run_throughput_point(
            time_source="cts", offered_per_s=25_000, duration_s=0.1, seed=3
        )
        assert not stormy.extra["saturated"]
        assert stormy.mean_us < 5 * calm.mean_us

    def test_sweep_returns_all_rates(self):
        from repro.workloads import run_throughput_sweep

        sweep = run_throughput_sweep(
            [500, 1_000], time_source="local", duration_s=0.05, seed=4
        )
        assert sorted(sweep) == [500, 1_000]


class TestSerialExecution:
    """``coalesce`` only decides whether the replica overlaps reads: the
    paper's one-round-per-operation protocol is the round engine run
    serially, not a second code path."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_protocol(self, seed):
        from repro.workloads import run_latency_workload, run_loadgen

        # Figure 5's client is sequential, so nothing can overlap and
        # both settings must produce the very same simulated run.
        serial = run_latency_workload(invocations=1_000, seed=seed,
                                      coalesce=False)
        pipelined = run_latency_workload(invocations=1_000, seed=seed,
                                         coalesce=True)
        assert serial.latencies_us == pipelined.latencies_us
        assert serial.ccs_transmitted == pipelined.ccs_transmitted
        assert serial.ops_coalesced == pipelined.ops_coalesced == 0

        # Under concurrency a serial replica still runs one round per
        # operation (the only extras are the start-up special rounds).
        loaded = run_loadgen(concurrency=16, duration_s=0.3, seed=seed,
                             coalesce=False)
        assert loaded.errors == 0
        assert loaded.extra["ops_coalesced"] == 0
        assert loaded.extra["ccs_per_op"] == pytest.approx(1.0, rel=1e-3)


class TestLoadgenChaos:
    def test_faults_on_point_stays_bounded(self):
        # A lossy wire plus a crash/recover cycle mid-window: the retry
        # path (same operation id, jittered backoff) must keep the
        # client-visible error rate bounded while throughput continues.
        from repro.workloads import run_loadgen_chaos

        result = run_loadgen_chaos(
            concurrency=8, duration_s=0.4, seed=5, loss_rate=0.02)
        assert result.mode == "chaos"
        assert result.completed > 0
        total = result.completed + result.errors
        assert result.errors / total <= 0.05
        assert result.extra["ops_coalesced"] > 0
        assert result.extra["rounds_completed"] > 0


@pytest.fixture(scope="module")
def small_chaos_run():
    from repro.workloads import run_loadgen_chaos

    return run_loadgen_chaos(
        concurrency=4, duration_s=0.2, seed=5, loss_rate=0.01)


class TestLoadgenTailStats:
    def make_result(self, latencies):
        from repro.workloads import LoadResult

        return LoadResult(mode="test", duration_s=1.0,
                          completed=len(latencies),
                          latencies_us=list(latencies))

    def test_p999_sits_at_the_tail(self):
        result = self.make_result(list(range(1, 1001)))
        assert result.p99_us < result.p999_us <= 1000

    def test_latency_buckets_are_cumulative(self):
        from repro.workloads.load import LATENCY_BUCKETS_US

        result = self.make_result([30, 60, 60, 450, 100_000])
        buckets = result.latency_buckets()
        assert [b[0] for b in buckets] == list(LATENCY_BUCKETS_US) + ["+Inf"]
        assert buckets[0] == [50, 1]
        assert buckets[1] == [100, 3]
        assert buckets[4] == [800, 4]
        assert buckets[-1] == ["+Inf", 5]
        counts = [b[1] for b in buckets]
        assert counts == sorted(counts)  # cumulative, never decreasing

    def test_to_dict_carries_tail_and_buckets(self, small_chaos_run):
        # The flat-bed generators report the tail and the histogram.
        result = small_chaos_run
        data = result.to_dict()
        assert data["p999_us"] == result.p999_us > 0
        assert data["latency_buckets_us"] == result.latency_buckets()
        assert data["latency_buckets_us"][-1] == ["+Inf", result.completed]
        # ... under the keys the committed trajectory already uses.
        import json
        from pathlib import Path

        trajectory = json.loads(
            (Path(__file__).parents[2] / "BENCH_throughput.json").read_text())
        committed = [run["modes"] for run in trajectory["runs"]
                     if "kind" not in run][-1]
        assert set(data) == set(committed["coalesced+fast-path"])
