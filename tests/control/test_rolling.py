"""The control drivers end to end: a live group reconfigured under
client load, judged by the invariant oracle."""

import pytest

from repro.control import run_reconfig_sequence, run_rolling_restart

from support import assert_verdict_keys  # noqa: E402 (tests/ on sys.path via conftest)

pytestmark = pytest.mark.live


def test_rolling_restart_cycles_every_node_cleanly():
    # One paced client is the hard case: before a restarted node's old
    # Totem processor was barred from acting after the crash (its timers
    # outlive a 20 ms outage), this run wedged the membership protocol
    # in GATHER on the third restart at every seed.
    verdict = run_rolling_restart(num_nodes=3, clients=1, seed=1,
                                  settle_s=0.5)
    assert verdict["ok"], (verdict["steps"], verdict["oracle"]["violations"])
    assert_verdict_keys(verdict, "run_rolling_restart")
    assert [step["step"] for step in verdict["steps"]] == [
        "restart n0", "restart n1", "restart n2"]
    assert all(step["ok"] for step in verdict["steps"])
    assert verdict["serving"] == ["n0", "n1", "n2"]
    assert verdict["oracle"]["replies_checked"] > 0
    clients = verdict["clients"]
    assert clients["count"] == 1
    assert clients["served"] > 0
    assert clients["shed"] == 0  # one paced client never overloads
    # One gateway per node at boot plus a fresh one per restart, the old
    # ones' tallies kept.
    assert len(verdict["admission"]) == 6
    assert verdict["gateway"]["requests_injected"] >= clients["served"]


def test_sequence_verdict_keeps_its_shape_when_a_step_fails():
    # A zero deadline fails the first step at once, which is all the
    # verdict's shape needs (the full script is CI's scenario-smoke).
    verdict = run_reconfig_sequence(clients=1, seed=1, settle_s=0.0,
                                    timeout_s=0.0)
    assert_verdict_keys(verdict, "run_reconfig_sequence")
    assert verdict["ok"] is False
    assert verdict["protocol_failures"] == []  # a failed step is not one
    (step,) = verdict["steps"]
    assert step["step"] == "join n3" and not step["ok"]
    assert step["error"].startswith("ReconfigurationError")
    assert verdict["original_primary"] in ("n0", "n1", "n2")
