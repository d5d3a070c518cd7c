"""Chaos engineering for the live runtime.

The paper's claim is that the group clock stays consistent and monotone
*across replica failures and recoveries*.  This package makes that claim
testable against real sockets, reproducibly:

* :mod:`repro.chaos.transport` — :class:`ChaosTransport`, a decorator
  over the :class:`repro.net.transport.Transport` contract that injects
  deterministic, seeded packet loss, delay, jitter, duplication,
  reordering and directional partitions per peer pair;
* :mod:`repro.chaos.scenario` — the JSON scenario-file DSL compiled
  into the :class:`repro.sim.faults.FaultPlan` event schedule, plus the
  byte-identical schedule hash that pins reproducibility;
* :mod:`repro.chaos.oracle` — the always-on invariant oracle that tails
  replies and telemetry during a run and checks the paper's guarantees
  online (per-client monotonicity, cross-replica agreement per round,
  bounded staleness, offset re-derivation after failover);
* :mod:`repro.chaos.byzantine` — replicas that *lie* instead of
  crashing: seeded ``lie``/``equivocate`` wire perturbation and the
  ``corrupt-state`` scrambler exercised by the authenticated Byzantine
  mode (``auth: true`` in a scenario);
* :mod:`repro.chaos.runner` — :class:`JudgedRun`, the one harness under
  every judged run (bed + plan + oracle + clients → verdict), and the
  ``python -m repro chaos`` runner over it: a live cluster on loopback
  UDP under a scenario, gateway clients hammering it, a JSON verdict
  out.
"""

from .byzantine import ByzantineRules, corrupt_time_state
from .oracle import InvariantOracle, Violation
from .scenario import ChaosScenario, compile_plan, load_scenario
from .transport import ChaosTransport
from .runner import JudgedRun, run_chaos

__all__ = [
    "ByzantineRules",
    "ChaosScenario",
    "ChaosTransport",
    "InvariantOracle",
    "JudgedRun",
    "Violation",
    "compile_plan",
    "corrupt_time_state",
    "load_scenario",
    "run_chaos",
]
