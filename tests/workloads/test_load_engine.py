"""The client-load engine, driven with hand-made per-call generators.

No sockets and no replicated service (but for the one test that loads
both substrates): a bare simulated bed supplies the kernel, and each
test hands :func:`closed_loop` / :func:`open_loop` a call whose timing
and outcome it controls.
"""

import json
import random
import threading

import pytest

from repro.control.admission import OVERLOADED, overloaded_value
from repro.errors import ConfigurationError, RpcTimeout
from repro.net.client import CallerStats, CallOutcome, LiveCaller
from repro.net.daemon import TimeApp
from repro.net.testbed import LiveTestbed
from repro.rpc.messages import Result
from repro.workloads import (
    ClockSessions,
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


def sim_clock_service():
    """The time service on the simulated LAN, called through the
    in-process client on n0."""
    bed = make_testbed(seed=1)
    bed.deploy("timesvc", TimeApp, ["n1", "n2", "n3"])
    client = bed.client("n0")
    bed.start()

    def call(_index):
        reply, latency_us = yield from client.timed_call(
            "timesvc", "gettimeofday", timeout=1.0)
        return latency_us if reply.ok else None

    return bed, call, lambda: None


def live_clock_service():
    """The same service over loopback UDP, called through two gateway
    callers on the bed's own kernel."""
    bed = LiveTestbed(num_nodes=3, seed=5)
    bed.deploy("timesvc", TimeApp, nodes=bed.node_ids,
               style="active", time_source="cts")
    bed.start()
    for node_id in bed.node_ids:
        bed.install_gateway(node_id)
    servers = [bed.node(node_id).address for node_id in bed.node_ids]
    callers = [LiveCaller(bed.kernel, servers, client_id=f"w{index}")
               for index in range(2)]

    def call(index):
        outcome = yield from callers[index].call("gettimeofday", timeout=1.0)
        return outcome.latency_us if outcome.first().ok else None

    def close():
        for caller in callers:
            caller.close()
        bed.shutdown()

    return bed, call, close


class TestBothSubstrates:
    @pytest.mark.parametrize("service", [
        pytest.param(sim_clock_service, id="sim"),
        pytest.param(live_clock_service, id="live", marks=pytest.mark.live),
    ])
    def test_closed_loop_loads_either_bed(self, service):
        threads = threading.active_count()
        bed, call, close = service()
        try:
            result = closed_loop(bed, call, workers=2, duration_s=0.1,
                                 drain_s=0.1)
            assert threading.active_count() == threads
        finally:
            close()
        assert result.errors == 0
        assert result.completed == len(result.latencies_us) > 20
        assert 0 < result.p50_us < 100_000


class StubCaller:
    """What :class:`ClockSessions` needs of a caller: plays back a script
    of replies, 1 ms of bed time each, then times out after 5 ms;
    records when and with which session floor it was called."""

    def __init__(self, sim, client_id, script):
        self.sim = sim
        self.client_id = client_id
        self.stats = CallerStats()
        self.script = list(script)
        self.calls = []  # (bed time, after_us argument)

    def call(self, method, after_us, *, timeout):
        self.calls.append((self.sim.now, after_us))
        if not self.script:
            yield self.sim.timeout(0.005)
            raise RpcTimeout("script exhausted")
        yield self.sim.timeout(0.001)
        return CallOutcome(method, {"n0": self.script.pop(0)},
                           latency_us=1_000, via=("127.0.0.1", 1))


def served(micros):
    return Result(value={"micros": micros})


def shed(retry_after_s):
    return Result(value=overloaded_value(retry_after_s), error=OVERLOADED)


def run_sessions(script, *, run_s=0.5, **options):
    """One session over a stub caller, run as a free worker for
    ``run_s`` of bed time and then stopped."""
    bed = make_testbed(seed=1)
    caller = StubCaller(bed.sim, "stub0", script)
    sessions = ClockSessions(bed.sim, [caller], **options)
    sessions.start()
    bed.run(run_s)
    sessions.stop()
    return bed, caller, sessions


class TestClockSessions:
    """A typed ``Overloaded`` reply is *shed*, not an error, and its
    retry-after hint is honoured before the session calls again — a shed
    client that hot-loops defeats the admission control that shed it."""

    def test_shed_client_sleeps_the_retry_after_hint(self):
        hint_s = 0.06
        _bed, caller, sessions = run_sessions([shed(hint_s), served(1_000)])
        first, second = caller.calls[0][0], caller.calls[1][0]
        assert second - first >= hint_s
        report = sessions.report()
        assert report["shed"] == 1
        assert report["served"] == 1
        # Overloaded is back-pressure, not a failure of the service: all
        # the rest timed out, but for the call in flight at the stop.
        assert report["errors"] == report["calls"] - 3 > 0

    def test_stop_interrupts_a_long_backoff(self):
        bed, caller, sessions = run_sessions([shed(30.0)], run_s=0.1)
        assert not any(worker.is_alive for worker in sessions._workers)
        bed.run(60.0)  # well past the hint: nobody wakes up to call again
        assert len(caller.calls) == 1
        assert sessions.report()["shed"] == 1

    def test_floor_rides_served_values_hook_sees_replies(self):
        seen = []
        _bed, caller, sessions = run_sessions(
            [served(100), Result(error="boom"), served(200)],
            on_reply=lambda client_id, value_us, started, finished, outcome:
                seen.append((client_id, value_us, finished >= started,
                             outcome.first().value["micros"])))
        assert [floor for _, floor in caller.calls[:4]] == [
            None, 100, 100, 200]
        assert seen == [("stub0", 100, True, 100), ("stub0", 200, True, 200)]
        report = sessions.report()
        assert (report["served"], report["shed"]) == (2, 0)
        assert report["errors"] == report["calls"] - 3
        assert report["count"] == 1
        assert 0 < report["error_rate"] < 1

    def test_pace_follows_served_calls_only(self):
        _bed, caller, _sessions = run_sessions(
            [served(100), Result(error="boom"), served(200)], pace_s=0.05)
        at = [when for when, _ in caller.calls[:4]]
        gaps = [round(b - a, 6) for a, b in zip(at, at[1:])]
        # 1 ms per scripted reply; only the served ones are followed by
        # the pause.
        assert gaps == [0.051, 0.001, 0.051]

    def test_the_same_sessions_drive_a_closed_loop(self):
        # The calibrator's shape: ``sessions.call`` under closed_loop,
        # which ends the workers at its deadline.
        bed = make_testbed(seed=1)
        callers = [StubCaller(bed.sim, f"stub{index}",
                              [served(value) for value in range(1, 40)])
                   for index in range(2)]
        sessions = ClockSessions(bed.sim, callers)
        result = closed_loop(bed, sessions.call, workers=2, duration_s=0.02,
                             drain_s=0.1)
        assert result.completed == sessions.tally["served"] == 40
        assert set(result.latencies_us) == {1_000}
        assert [floor for _, floor in callers[1].calls[:3]] == [None, 1, 2]


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

    def test_gaps_come_from_the_arrival_process(self):
        bed = make_testbed(seed=1)
        rng = random.Random(9)
        drawn, issued_at = [], []

        def gap(late_s):
            assert late_s == 0.0  # a simulated bed is never late
            drawn.append(rng.expovariate(200.0))
            return drawn[-1]

        result = open_loop(
            bed, lambda done: issued_at.append(bed.sim.now) or done(1),
            rate=200.0, duration_s=0.5, drain_s=0.1, gap=gap)
        # The first arrival is immediate, each later one a drawn gap
        # after the one before; the draw that crossed the window's end
        # issued nothing.
        assert result.extra["issued"] == len(issued_at) == len(drawn) > 50
        gaps = [b - a for a, b in zip(issued_at, issued_at[1:])]
        assert gaps == pytest.approx(drawn[:-1])
        assert issued_at[-1] - issued_at[0] < 0.5 <= sum(drawn)


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
