"""Rolling restarts and scripted reconfiguration under sustained load.

Two drivers, both modeled on the chaos harness (in-process
:class:`~repro.net.testbed.LiveTestbed`, threaded gateway clients, the
:class:`~repro.chaos.oracle.InvariantOracle` judging every reply):

* :func:`run_rolling_restart` cycles every node of a serving group in
  sequence — drain, fail-stop, recover, rejoin — gated on the previous
  node being *fully re-admitted* (state transferred, in every view, and
  having completed fresh CCS rounds), so at most one replica is ever
  outside the group.  This is ``repro control rolling-restart`` and the
  CI ``reconfig-smoke`` job.

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

from ..chaos.oracle import InvariantOracle
from ..chaos.runner import gateway_tallies, oracle_fed_clients
from ..net.daemon import TimeApp
from ..net.testbed import LiveTestbed
from .admission import AdmissionConfig
from .plane import ControlPlane

GROUP = "timesvc"


class _ReconfigHarness:
    """Shared scaffolding: bed + gateways + oracle + threaded load."""

    def __init__(self, node_ids: List[str], serving: List[str], *,
                 seed: int, clients: int, fast_path: bool,
                 max_staleness_us: int,
                 admission_config: Optional[AdmissionConfig]):
        # Reconfiguration legitimately lets served time lag while a
        # membership change drains its round backlog; the oracle must
        # see the lag *repaid*, so give it a transient bound sized to a
        # restart outage rather than the default.
        self.oracle = InvariantOracle(staleness_budget_us=max_staleness_us,
                                      max_transient_lag_us=5_000_000)
        self.bed = LiveTestbed(node_ids=node_ids, seed=seed)
        self.bed.deploy(GROUP, TimeApp, nodes=serving,
                        style="active", time_source="cts",
                        fast_path=fast_path,
                        max_staleness_us=max_staleness_us)
        self.bed.start()
        for node_id in node_ids:
            self.bed.install_gateway(node_id, admission_config)
        self.oracle.attach()
        # A recovered node's runtime is fresh: the oracle must know a
        # restart happened (it expects post-recovery rounds).
        self.plane = ControlPlane(self.bed, group=GROUP,
                                  on_node_ready=self.oracle.note_recovery)
        servers = [self.bed.node(node_id).address for node_id in node_ids]
        self.clients = oracle_fed_clients(clients, servers, self.oracle)
        self.steps: List[Dict[str, object]] = []

    def start_load(self, warmup_s: float = 1.0) -> None:
        self.clients.start()
        self.bed.pump(warmup_s)

    def step(self, label: str, action: Callable[[], object]) -> bool:
        started = time.monotonic()
        self.oracle.note_reconfig()
        try:
            action()
            ok, error = True, None
        except Exception as exc:  # recorded, not raised: judge the run
            ok, error = False, f"{type(exc).__name__}: {exc}"
        self.steps.append({
            "step": label,
            "ok": ok,
            "error": error,
            "elapsed_s": round(time.monotonic() - started, 3),
        })
        return ok

    def finish(self, drain_s: float = 1.5) -> Dict[str, object]:
        # Keep load running past the last step: the post-reformation
        # rounds that repay the reconfiguration's staleness debt must
        # be *observed* for the oracle to credit them.
        self.bed.pump(drain_s)
        self.clients.stop()
        self.clients.join()
        self.bed.run(0.2)
        self.oracle.finish(self.bed, group=GROUP)
        steps_ok = all(s["ok"] for s in self.steps)
        verdict: Dict[str, object] = {
            "steps": self.steps,
            "reconfig_log": list(self.plane.log),
            "serving": self.plane.serving(),
            "clients": self.clients.report(),
            "gateway": gateway_tallies(self.bed),
            "admission": [
                g.admission.stats.to_dict() for g in self.bed.gateways
                if g.admission is not None
            ],
            "oracle": self.oracle.report(),
        }
        verdict["ok"] = (self.oracle.ok
                         and steps_ok
                         and self.oracle.replies_checked > 0)
        return verdict

    def shutdown(self) -> None:
        self.clients.stop()
        self.oracle.detach()
        self.bed.shutdown()


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
) -> Dict[str, object]:
    """Cycle every node of a live group under sustained client load."""
    node_ids = [f"n{i}" for i in range(num_nodes)]
    harness = _ReconfigHarness(
        node_ids, node_ids, seed=seed, clients=clients,
        fast_path=fast_path, max_staleness_us=max_staleness_us,
        admission_config=admission_config or AdmissionConfig())
    try:
        harness.start_load(settle_s)
        for node_id in node_ids:
            ok = harness.step(
                f"restart {node_id}",
                lambda node_id=node_id: harness.plane.restart_node(
                    node_id, timeout_s=timeout_s,
                    require_rounds=require_rounds))
            if not ok:
                break
            harness.bed.pump(0.3)
        verdict = harness.finish()
        verdict["mode"] = "rolling-restart"
        verdict["nodes"] = node_ids
        verdict["seed"] = seed
        return verdict
    finally:
        harness.shutdown()


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
) -> Dict[str, object]:
    """The acceptance script: join a 4th replica into a 3-node group,
    drain the original primary, rolling-restart the remaining members —
    all under sustained load, with zero oracle violations required."""
    node_ids = ["n0", "n1", "n2", "n3"]
    serving = node_ids[:3]
    harness = _ReconfigHarness(
        node_ids, serving, seed=seed, clients=clients,
        fast_path=fast_path, max_staleness_us=max_staleness_us,
        admission_config=admission_config or AdmissionConfig())
    try:
        harness.start_load(settle_s)
        plane = harness.plane
        # The "original primary" is the head of the group view as the
        # serving members computed it, not an assumption about n0.
        primary = (plane.view_members(serving[0]) or serving)[0]
        sequence_ok = harness.step(
            "join n3",
            lambda: plane.join("n3", timeout_s=timeout_s,
                               require_rounds=require_rounds))
        if sequence_ok:
            harness.bed.pump(0.3)
            sequence_ok = harness.step(
                f"drain primary {primary}",
                lambda: plane.drain(primary, timeout_s=timeout_s))
        if sequence_ok:
            harness.bed.pump(0.3)
            for node_id in list(plane.serving()):
                if not harness.step(
                        f"restart {node_id}",
                        lambda node_id=node_id: plane.restart_node(
                            node_id, timeout_s=timeout_s,
                            require_rounds=require_rounds)):
                    break
                harness.bed.pump(0.3)
        verdict = harness.finish()
        verdict["mode"] = "reconfig-sequence"
        verdict["nodes"] = node_ids
        verdict["seed"] = seed
        verdict["original_primary"] = primary
        return verdict
    finally:
        harness.shutdown()
