"""``python -m repro chaos`` over a sharded topology.

Runs a scenario whose top-level ``shards:`` key is set: boots a
:class:`~repro.shard.cluster.ShardedTestbed` (N rings on one simulated
LAN), deploys the daemon's :class:`~repro.net.daemon.TimeApp` as one
active CTS group per shard, starts the gradient overlay, and hammers
the fleet through a :class:`~repro.shard.router.ShardRouter` — session
keys spread over the ring, floors carried across shards.

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

from ..chaos.oracle import InvariantOracle
from ..chaos.scenario import ChaosScenario, compile_plan
from ..errors import ConfigurationError
from ..net.daemon import TimeApp
from ..obs.crossnode import TraceShardWriter
from ..workloads.load import closed_loop
from .cluster import ShardedTestbed
from .overlay import GradientOverlay, OverlayConfig
from .router import ShardRouter

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
) -> Dict:
    """Run one sharded chaos scenario; return the JSON-able verdict."""
    if scenario.shards is None:
        raise ConfigurationError(
            "run_shard_chaos needs a sharded scenario (top-level 'shards')")
    duration = duration_s if duration_s is not None else scenario.duration_s
    n_clients = clients if clients is not None else scenario.clients
    plan = compile_plan(scenario)
    oracle = InvariantOracle(staleness_budget_us=max_staleness_us)
    shard_writer: Optional[TraceShardWriter] = None
    if artifacts_dir is not None:
        # Per-node trace shards for post-mortem (CI uploads on failure).
        shard_writer = TraceShardWriter(artifacts_dir)

    bed = ShardedTestbed(shards=scenario.shards,
                         shard_size=scenario.shard_size, seed=seed)
    bed.chaos_seed = seed  # corrupt-state draws from the run's seed
    bed.deploy_shards(TimeApp, fast_path=fast_path,
                      max_staleness_us=max_staleness_us)
    overlay_config = OverlayConfig(secret=f"shards-{seed}")
    overlay = GradientOverlay(bed, overlay_config, oracle=oracle)
    router = ShardRouter(
        bed, oracle=oracle,
        oracle_gate=lambda: overlay.skew.warmed_up,
        rate_slack_us=overlay_config.hop_bound_us)
    try:
        bed.start()
        overlay.start()
        oracle.attach()
        plan.arm(bed)

        # The daemon-restart half of every recover event, in the same
        # kernel tick as bed.recover(): re-add the replica as its shard
        # was deployed (state transfer + integration round, sharing the
        # shard's steering hook).
        def _restart(node_id: str) -> None:
            oracle.note_recovery(node_id)
            bed.add_replica(bed.group_of(bed.shard_of_node(node_id)),
                            node_id)

        for event in plan.schedule():
            if event.kind == "recover":
                bed.sim.schedule(event.at_s, _restart, event.target[0])
            elif event.kind == "corrupt-state":
                bed.sim.schedule(event.at_s, oracle.note_corruption,
                                 event.target[0])

        # Migration drill: shrink the routing ring mid-run, grow it back.
        drill = {"removed": False, "restored": False}
        last_shard = scenario.shards - 1
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
        oracle.finish(
            bed, groups=[bed.group_of(s) for s in range(scenario.shards)])

        migrations = sum(
            s.migrations for s in router.sessions.values())
        verdict = {
            "scenario": scenario.name,
            "seed": seed,
            "shards": scenario.shards,
            "shard_size": scenario.shard_size,
            "nodes": list(scenario.node_ids),
            "duration_s": duration,
            "schedule_hash": plan.schedule_hash(),
            "schedule": [event.canonical() for event in plan.schedule()],
            "faults_injected": len(plan.injected),
            "faults_pending": len(plan.events) - len(plan.injected),
            "migration_drill": dict(drill, migrations=migrations),
            "clients": {
                "count": n_clients,
                "calls": load.completed,
                "errors": load.errors,
                "error_rate": (load.errors / load.completed
                               if load.completed else 1.0),
            },
            "overlay": overlay.report(),
            "oracle": oracle.report(),
        }
        verdict["ok"] = (oracle.ok
                         and plan.done
                         and oracle.replies_checked > 0
                         and oracle.shard_summaries_checked > 0)
        return verdict
    finally:
        oracle.detach()
        if shard_writer is not None:
            shard_writer.close()
