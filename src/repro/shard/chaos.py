"""``python -m repro chaos`` over a sharded topology.

Runs a scenario whose top-level ``shards`` key is set: boots the
:func:`~repro.shard.cluster.sharded_fleet` (N rings on one simulated
LAN, the daemon's :class:`~repro.net.daemon.TimeApp` as one active CTS
group per shard, the gradient overlay, the session router) and hammers
it through the router — session keys spread over the ring, floors
carried across shards — as one
:class:`~repro.chaos.runner.JudgedRun`.

The fault schedule is the ordinary compiled
:class:`~repro.sim.faults.FaultPlan` (shard-scoped partitions expand in
:func:`~repro.chaos.scenario.compile_plan`), armed on the sim bed, so
the canonical schedule hash pins the run byte-identically.  On top of
the scripted faults the runner always performs a **migration drill**:
at 55% of the duration the last shard is removed from the routing ring
(its sessions migrate away, carrying their floors), and at 80% it is
re-added (they migrate back).  The drill exercises the oracle's
migration-monotonicity check in every run without touching the
scenario's schedule hash.

The verdict mirrors the live runner's: schedule + hash, client tallies,
the overlay's skew envelope, and the oracle's judgement — ``ok`` only
if zero violations, the whole schedule injected, and both replies *and*
cross-shard summaries were actually checked.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..chaos.runner import JudgedRun
from ..chaos.scenario import ChaosScenario, compile_plan
from ..errors import ConfigurationError
from ..obs import Bus
from ..net.daemon import TimeApp
from ..workloads.load import LoadResult, closed_loop
from .cluster import sharded_fleet

__all__ = ["run_shard_chaos"]


def run_shard_chaos(
    scenario: ChaosScenario,
    *,
    seed: int = 0,
    duration_s: Optional[float] = None,
    clients: Optional[int] = None,
    fast_path: bool = True,
    max_staleness_us: int = 2_000,
    artifacts_dir: Optional[str] = None,
    obs: Optional[Bus] = None,
) -> Dict:
    """Run one sharded chaos scenario; return the JSON-able verdict
    (``obs``: the bus the bed records into, its own by default)."""
    if scenario.shards is None:
        raise ConfigurationError(
            "run_shard_chaos needs a sharded scenario (top-level 'shards')")
    duration = duration_s if duration_s is not None else scenario.duration_s
    n_clients = clients if clients is not None else scenario.clients
    run = JudgedRun(compile_plan(scenario), name=scenario.name, seed=seed,
                    duration_s=duration, artifacts_dir=artifacts_dir,
                    staleness_budget_us=max_staleness_us)
    bed, overlay, router = sharded_fleet(
        TimeApp, shards=scenario.shards, shard_size=scenario.shard_size,
        seed=seed, fast_path=fast_path, max_staleness_us=max_staleness_us,
        oracle=run.oracle, obs=obs, secret=f"shards-{seed}")
    bed.start()
    overlay.start()
    drill = {"removed": False, "restored": False}
    last_shard = scenario.shards - 1
    # What the verdict tallies if the run dies before the loop returns.
    load = LoadResult(mode="closed-loop", duration_s=duration)
    with run.over(bed, [bed.group_of(s) for s in range(scenario.shards)]):
        # Migration drill: shrink the routing ring mid-run, grow it back.
        if scenario.shards >= 2:
            def _shrink() -> None:
                bed.ring.remove(last_shard)
                drill["removed"] = True

            def _grow() -> None:
                bed.ring.add(last_shard)
                drill["restored"] = True

            bed.sim.schedule(0.55 * duration, _shrink)
            bed.sim.schedule(0.80 * duration, _grow)

        # One session per client hammering the fleet at ~100 req/s.
        sessions = [router.session(f"chaos{index}")
                    for index in range(n_clients)]
        load = closed_loop(
            bed, lambda index: router.timed_call(sessions[index]),
            workers=n_clients, duration_s=duration, think_s=0.01,
            drain_s=0.5)  # drain in-flight calls and summaries

    return run.verdict(
        require=run.oracle.shard_summaries_checked > 0,
        shards=scenario.shards,
        shard_size=scenario.shard_size,
        migration_drill=dict(drill, migrations=sum(
            s.migrations for s in router.sessions.values())),
        clients={
            "count": n_clients,
            "calls": load.completed,
            "errors": load.errors,
            "error_rate": (load.errors / load.completed
                           if load.completed else 1.0),
        },
        overlay=overlay.report(),
    )
