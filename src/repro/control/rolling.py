"""Rolling restarts and scripted reconfiguration under sustained load.

Two drivers, each one :class:`~repro.chaos.runner.JudgedRun` over an
in-process :class:`~repro.net.testbed.LiveTestbed` loaded by gateway
clients on its own kernel, the :class:`~repro.chaos.oracle.InvariantOracle`
judging every reply:

* :func:`run_rolling_restart` cycles every node of a serving group in
  sequence — drain, fail-stop, recover, rejoin — gated on the previous
  node being *fully re-admitted* (state transferred, in every view, and
  having completed fresh CCS rounds), so at most one replica is ever
  outside the group.  This is ``repro control rolling-restart``.

* :func:`run_reconfig_sequence` is the acceptance script: join a cold
  replica into a 3-node group, drain the original primary, then rolling-
  restart the remaining members — all while clients hammer the gateways
  and the oracle checks monotonicity, agreement, and staleness.

Verdicts are JSON-able and judged the same way as chaos verdicts: a run
is ``ok`` only when every step completed, the oracle saw traffic, and it
found zero violations.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from ..chaos.runner import JudgedRun, gateway_tallies, oracle_fed_clients
from ..errors import ReconfigurationError, ReproError
from ..net.daemon import TimeApp
from ..net.testbed import LiveTestbed
from ..obs import Bus
from .admission import AdmissionConfig
from .plane import ControlPlane

GROUP = "timesvc"

def _judge_script(mode: str, node_ids: List[str], serving: List[str],
                  script: Callable[..., Dict], *, seed: int, clients: int,
                  settle_s: float, fast_path: bool, max_staleness_us: int,
                  admission_config: Optional[AdmissionConfig],
                  obs: Optional[Bus]) -> Dict:
    """Boot ``node_ids`` with the group on ``serving`` (recording into
    ``obs``), load it, run the script under the oracle, and return the
    verdict.  ``script(plane, step)`` runs its steps through
    ``step(label, action) -> bool`` (False: the step failed, stop) and
    returns the verdict sections it adds."""
    # Reconfiguration legitimately lets served time lag while a
    # membership change drains its round backlog; the oracle must see
    # the lag *repaid*, so give it a transient bound sized to a restart
    # outage rather than the default.
    run = JudgedRun(seed=seed, staleness_budget_us=max_staleness_us,
                    max_transient_lag_us=5_000_000)
    steps: List[Dict[str, object]] = []
    extra: Dict[str, object] = {}

    def step(label: str, action: Callable[[], object]) -> bool:
        started = time.monotonic()
        run.oracle.note_reconfig()
        failure = None
        try:
            action()
        except ReproError as exc:  # recorded: the verdict names the step
            failure = exc
        steps.append({
            "step": label,
            "ok": failure is None,
            "error": failure and f"{type(failure).__name__}: {failure}",
            "elapsed_s": round(time.monotonic() - started, 3),
        })
        if failure is None:
            bed.run(0.3)
        elif not isinstance(failure, ReconfigurationError):
            raise failure  # a protocol failure: the run ends here
        return failure is None

    with LiveTestbed(node_ids=node_ids, seed=seed, obs=obs) as bed:
        bed.deploy(GROUP, TimeApp, nodes=serving, style="active",
                   time_source="cts", fast_path=fast_path,
                   max_staleness_us=max_staleness_us)
        bed.start()
        for node_id in node_ids:
            bed.install_gateway(node_id, admission_config or AdmissionConfig())
        with run.over(bed, [GROUP]), \
                oracle_fed_clients(clients, bed, run.oracle) as sessions:
            bed.run(settle_s)
            extra = script(run.plane, step)
            # Keep load running past the last step: the post-reformation
            # rounds that repay the reconfiguration's staleness debt
            # must be *observed* for the oracle to credit them.
            bed.run(1.5)
        return run.verdict(
            require=all(s["ok"] for s in steps),
            mode=mode,
            steps=steps,
            reconfig_log=list(run.plane.log),
            serving=run.plane.serving(),
            clients=sessions.report(),
            gateway=gateway_tallies(bed),
            admission=[g.admission.stats.to_dict() for g in bed.gateways
                       if g.admission is not None],
            **extra)


def _restart_each(plane: ControlPlane, step, node_ids: List[str],
                  **gate) -> None:
    """Restart one node at a time, stopping at the first failed step."""
    for node_id in node_ids:
        if not step(f"restart {node_id}",
                    lambda: plane.restart_node(node_id, **gate)):
            break


def run_rolling_restart(
    *,
    num_nodes: int = 3,
    seed: int = 0,
    clients: int = 4,
    require_rounds: int = 1,
    timeout_s: float = 20.0,
    settle_s: float = 1.0,
    fast_path: bool = True,
    max_staleness_us: int = 2_000,
    admission_config: Optional[AdmissionConfig] = None,
    obs: Optional[Bus] = None,
) -> Dict[str, object]:
    """Cycle every node of a live group under sustained client load."""
    node_ids = [f"n{i}" for i in range(num_nodes)]

    def script(plane, step):
        _restart_each(plane, step, node_ids, timeout_s=timeout_s,
                      require_rounds=require_rounds)
        return {}

    return _judge_script(
        "rolling-restart", node_ids, node_ids, script, seed=seed,
        clients=clients, settle_s=settle_s, fast_path=fast_path,
        max_staleness_us=max_staleness_us, admission_config=admission_config,
        obs=obs)


def run_reconfig_sequence(
    *,
    seed: int = 0,
    clients: int = 4,
    require_rounds: int = 1,
    timeout_s: float = 20.0,
    settle_s: float = 1.0,
    fast_path: bool = True,
    max_staleness_us: int = 2_000,
    admission_config: Optional[AdmissionConfig] = None,
    obs: Optional[Bus] = None,
) -> Dict[str, object]:
    """The acceptance script: join a 4th replica into a 3-node group,
    drain the original primary, rolling-restart the remaining members —
    all under sustained load, with zero oracle violations required."""
    node_ids = ["n0", "n1", "n2", "n3"]
    serving = node_ids[:3]

    def script(plane, step):
        # The "original primary" is the head of the group view as the
        # serving members computed it, not an assumption about n0.
        primary = (plane.view_members(serving[0]) or serving)[0]
        if (step("join n3",
                 lambda: plane.join("n3", timeout_s=timeout_s,
                                    require_rounds=require_rounds))
                and step(f"drain primary {primary}",
                         lambda: plane.drain(primary, timeout_s=timeout_s))):
            _restart_each(plane, step, list(plane.serving()),
                          timeout_s=timeout_s, require_rounds=require_rounds)
        return {"original_primary": primary}

    return _judge_script(
        "reconfig-sequence", node_ids, serving, script, seed=seed,
        clients=clients, settle_s=settle_s, fast_path=fast_path,
        max_staleness_us=max_staleness_us, admission_config=admission_config,
        obs=obs)
