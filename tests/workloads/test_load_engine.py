"""The client-load engine, driven with hand-made per-call generators.

No sockets and no replicated service: a bare simulated bed supplies the
kernel, and each test hands :func:`closed_loop` / :func:`open_loop` a
call whose timing and outcome it controls.
"""

import json

import pytest

from repro.errors import ConfigurationError, RpcTimeout
from repro.workloads import (
    LoadResult,
    ZipfPicker,
    append_run,
    closed_loop,
    open_loop,
)

from ..support import make_testbed


def fixed_latency_call(bed, seconds, calls):
    """A call taking ``seconds`` of bed time; records its issue time."""

    def call(index):
        calls.append((index, bed.sim.now))
        yield bed.sim.timeout(seconds)
        return int(seconds * 1e6)

    return call


class TestClosedLoop:
    def test_workers_run_until_the_deadline(self):
        bed = make_testbed(seed=1)
        calls = []
        result = closed_loop(bed, fixed_latency_call(bed, 0.03, calls),
                             workers=3, duration_s=0.1, drain_s=0.1)
        # Each worker issues at 0, 30, 60 and 90 ms; the last call ends
        # in the drain.
        assert result.completed == len(calls) == 12
        assert result.errors == 0
        assert result.ops_per_s == pytest.approx(120)
        assert set(result.latencies_us) == {30_000}
        assert {index for index, _ in calls} == {0, 1, 2}

    def test_warmup_excludes_early_calls(self):
        bed = make_testbed(seed=1)
        calls, tallied = [], []
        start = bed.sim.now
        result = closed_loop(bed, fixed_latency_call(bed, 0.03, calls),
                             workers=1, duration_s=0.1, warmup_s=0.1,
                             drain_s=0.1, on_completed=tallied.append)
        # The worker ran through the warm-up (issuing every 30 ms from 0
        # to 180 ms), but only the calls issued at or after the 100 ms
        # boundary were tallied.
        assert len(calls) == 7
        measured = [at for _, at in calls if at - start >= 0.1]
        assert result.completed == len(measured) == len(tallied) == 3

    def test_think_time_paces_the_worker(self):
        bed = make_testbed(seed=1)
        calls = []
        closed_loop(bed, fixed_latency_call(bed, 0.01, calls), workers=1,
                    duration_s=0.1, think_s=0.02, drain_s=0.1)
        assert len(calls) == 4  # at 0, 30, 60 and 90 ms

    def test_failed_and_timed_out_calls_count_as_errors(self):
        bed = make_testbed(seed=1)

        def call(index):
            yield bed.sim.timeout(0.03)
            if index == 0:
                return None  # an error reply
            raise RpcTimeout("no reply")

        result = closed_loop(bed, call, workers=2, duration_s=0.1,
                             drain_s=0.1)
        assert result.completed == 0
        assert result.errors == 8

    def test_worker_exception_is_reraised(self):
        bed = make_testbed(seed=1)

        def call(index):
            yield bed.sim.timeout(0.01)
            raise KeyError("servant bug")

        with pytest.raises(KeyError, match="servant bug"):
            closed_loop(bed, call, workers=2, duration_s=0.05, drain_s=0.1)


class TestOpenLoop:
    def test_arrivals_do_not_wait_for_replies(self):
        bed = make_testbed(seed=1)
        issued_at = []

        def issue(done):
            issued_at.append(bed.sim.now)
            # Every call takes far longer than the arrival interval; the
            # third one fails.
            latency_us = None if len(issued_at) == 3 else 50_000
            bed.sim.schedule(0.05, done, latency_us)

        result = open_loop(bed, issue, rate=100.0, duration_s=0.095,
                           drain_s=0.2)
        assert result.extra["issued"] == len(issued_at) == 10
        gaps = [b - a for a, b in zip(issued_at, issued_at[1:])]
        assert gaps == pytest.approx([0.01] * 9)
        assert (result.completed, result.errors) == (9, 1)
        assert result.mean_us == 50_000


class TestLoadResult:
    def test_extra_is_merged_into_the_dict(self):
        result = LoadResult(mode="m", duration_s=2.0, completed=3,
                            latencies_us=[100, 200, 300],
                            extra={"shards": 2, "per_shard": {"0": {}}})
        assert result.to_dict() == {
            "mode": "m", "duration_s": 2.0, "completed": 3, "errors": 0,
            "ops_per_s": 1.5, "p50_us": 200.0, "p99_us": 300.0,
            "shards": 2, "per_shard": {"0": {}},
        }

    def test_empty_result_reads_zero(self):
        result = LoadResult(mode="m", duration_s=0.0)
        assert result.ops_per_s == result.p99_us == result.mean_us == 0.0


class TestZipfPicker:
    def test_picks_stay_inside_the_universe(self):
        import random

        picker = ZipfPicker(7, 1.3, random.Random(5))
        assert {picker.pick() for _ in range(500)} <= set(range(7))


class TestAppendRun:
    def test_creates_the_parent_directory(self, tmp_path):
        # Defect (a): the flat recorder never created it, so
        # ``--compare --bench-json new/dir/x.json`` died at the very end.
        path = tmp_path / "new" / "dir" / "bench.json"
        append_run(path, {"modes": {}})
        doc = append_run(path, {"modes": {}, "kind": "second"})
        assert json.loads(path.read_text()) == doc
        assert doc["benchmark"] == "loadgen-throughput"
        assert [run.get("kind") for run in doc["runs"]] == [None, "second"]
        assert all("recorded_at" in run for run in doc["runs"])

    @pytest.mark.parametrize("content", [
        "{ not json",                 # a bad merge left conflict debris
        json.dumps({"benchmark": "x"}),   # parses, but no runs list
        json.dumps([1, 2, 3]),
    ])
    def test_refuses_to_replace_a_damaged_trajectory(self, tmp_path, content):
        # Defect (b): all three recorders silently started a fresh
        # document over a file they could not read.
        path = tmp_path / "bench.json"
        path.write_text(content)
        with pytest.raises(ConfigurationError, match="bench.json"):
            append_run(path, {"modes": {}})
        assert path.read_text() == content
