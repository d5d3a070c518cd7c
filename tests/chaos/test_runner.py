"""End-to-end chaos harness: a short seeded scenario over real sockets.

A trimmed cousin of ``examples/chaos_partition.json`` — loss, an
isolation window, a crash/recover cycle — driven through
:func:`repro.chaos.runner.run_chaos` exactly as the CLI does.  The
verdict must come back clean: every fault injected, replies observed,
zero invariant violations.
"""

import threading
from pathlib import Path

import pytest

from repro.chaos import ChaosScenario, InvariantOracle, compile_plan, run_chaos
from repro.errors import TimeServiceError
from repro.net.testbed import LiveTestbed
from repro.obs.crossnode import shard_path

from support import assert_verdict_keys  # noqa: E402 (tests/ on sys.path via conftest)

pytestmark = pytest.mark.live


def short_scenario():
    return ChaosScenario(
        name="smoke",
        node_ids=["n0", "n1", "n2"],
        duration_s=5.0,
        clients=1,
        events=[
            {"at": 0.5, "drop": 0.05},
            {"at": 1.5, "partition": [["n0", "n1"], ["n2"]]},
            {"at": 2.5, "heal": True},
            {"at": 3.0, "crash": "n2"},
            {"at": 4.0, "recover": "n2"},
        ],
    )


class TestRunChaos:
    def test_verdict_is_clean_and_reproducible(self, monkeypatch):
        # Clients, nodes and the oracle all live on the bed's kernel:
        # whoever feeds the oracle does so from this thread, and the run
        # starts no other.
        fed_from = []
        for feed in ("observe_reply", "_on_trace"):
            def recording(self, *args, _feed=getattr(InvariantOracle, feed),
                          **kwargs):
                fed_from.append((threading.get_ident(),
                                 threading.active_count()))
                return _feed(self, *args, **kwargs)
            monkeypatch.setattr(InvariantOracle, feed, recording)
        threads_before = threading.active_count()

        scenario = short_scenario()
        verdict = run_chaos(scenario, seed=3)

        assert threading.active_count() == threads_before
        assert set(fed_from) == {(threading.get_ident(), threads_before)}
        assert len(fed_from) > verdict["oracle"]["replies_checked"] > 0
        assert verdict["ok"], verdict["oracle"]["violations"]
        assert_verdict_keys(verdict, "run_chaos")
        assert verdict["protocol_failures"] == []
        assert verdict["faults_injected"] == 5
        assert verdict["faults_pending"] == 0
        # The schedule in the verdict is the compiled plan, byte for byte.
        assert verdict["schedule_hash"] == compile_plan(scenario).schedule_hash()
        # The wire actually hurt: seeded loss plus the partition window.
        assert verdict["chaos"]["frames_dropped"] > 0
        assert verdict["chaos"]["frames_blocked"] > 0
        # Clients kept making progress and the oracle watched them do it.
        oracle = verdict["oracle"]
        assert oracle["ok"] is True
        assert oracle["violations"] == []
        assert oracle["replies_checked"] > 0
        assert oracle["rounds_checked"] > 0
        clients = verdict["clients"]
        assert clients["calls"] > 0
        assert clients["error_rate"] <= 0.25
        # Every client call went through a gateway exactly once.
        assert verdict["gateway"]["requests_injected"] > 0
        # No artifacts directory: no trace section, no tracing overhead.
        assert "trace" not in verdict

    def test_artifacts_dir_yields_assembled_timelines(self, tmp_path):
        scenario = ChaosScenario(
            name="traced", node_ids=["n0", "n1", "n2"],
            duration_s=2.0, clients=1,
            events=[{"at": 0.5, "drop": 0.02}])
        verdict = run_chaos(scenario, seed=11,
                            artifacts_dir=str(tmp_path))

        assert verdict["ok"], verdict["oracle"]["violations"]
        # Per-node shards were written: every daemon node plus the client.
        for node in ("n0", "n1", "n2", "chaos0"):
            assert shard_path(tmp_path, node).exists(), node
        trace_section = verdict["trace"]
        assert trace_section["shard_dir"] == str(tmp_path)
        assert trace_section["records"] > 0
        assert trace_section["timelines"] > 0
        # The acceptance criterion: at least one end-to-end timeline
        # (client send -> gateway -> execute -> round won -> served ->
        # reply received) was stitched from the per-node shards.
        assert trace_section["complete"] >= 1
        example = trace_section["example"]
        assert example["complete"] is True
        stages = {hop["stage"] for hop in example["hops"]}
        assert {"client.send", "gateway.inject", "served",
                "round.won", "reply.recv"} <= stages
        # One time base per timeline: the client stamps its hops with
        # the kernel time the nodes use, so the ends of the chain can be
        # subtracted (hops in between interleave across replicas).
        at = {}
        for hop in example["hops"]:
            at.setdefault(hop["stage"], []).append(hop["t"])
        (sent,), (received,) = at["client.send"], at["reply.recv"]
        assert sent <= min(at["gateway.inject"])
        assert min(at["reply.forward"]) <= received
        assert 0 < received - sent < 1.5  # under the call deadline
        # A clean run dumps nothing, but the key is always present.
        assert verdict["flight_dumps"] == []

    def test_protocol_failure_is_a_verdict_not_a_traceback(
            self, tmp_path, monkeypatch):
        # ROADMAP 4(a): the 1-in-30 recovery flake used to kill the
        # runner with nothing for CI to upload.  Plant a failing process
        # (what the kernel surfaces out of bed.pump as an unheeded
        # failure) and the run must end in a verdict that records it.
        boot = LiveTestbed.start

        def boot_and_plant(bed, settle=1.0):
            boot(bed, settle)

            def doomed():
                yield bed.sim.timeout(0.4)
                raise TimeServiceError("planted protocol failure", node="n1")

            bed.sim.process(doomed(), name="planted")

        monkeypatch.setattr(LiveTestbed, "start", boot_and_plant)
        scenario = ChaosScenario(
            name="doomed", node_ids=["n0", "n1", "n2"],
            duration_s=3.0, clients=1,
            events=[{"at": 0.1, "drop": 0.02}, {"at": 2.5, "heal": True}])
        verdict = run_chaos(scenario, seed=5, artifacts_dir=str(tmp_path))

        assert verdict["ok"] is False
        (failure,) = verdict["protocol_failures"]
        assert "planted protocol failure" in failure["error"]
        assert failure["node"] == "n1"
        assert failure["at"] > 0.4
        dump = Path(failure["flight_dump"])
        assert dump == tmp_path / "flight-protocol-failure.json"
        assert dump.exists()
        assert str(dump) in verdict["flight_dumps"]
        # The run ended where it failed: the late fault never fired, and
        # the rest of the verdict is there to say what did happen.
        assert verdict["faults_injected"] == 1
        assert verdict["faults_pending"] == 1
        assert verdict["clients"]["calls"] > 0
        assert verdict["trace"]["records"] > 0  # the shards were closed
