"""The ``python -m repro chaos`` harness.

Runs one scenario end to end, in process but over real sockets:

1. boot a :class:`~repro.net.testbed.LiveTestbed` whose UDP transport is
   wrapped in a seeded :class:`~repro.chaos.transport.ChaosTransport`;
2. deploy the daemon's :class:`~repro.net.daemon.TimeApp` on every node
   (active replication, CTS time source, fast path on so the staleness
   invariant is exercised) and front each with a client gateway
   (:meth:`~repro.net.testbed.LiveTestbed.install_gateway`), exactly as
   ``repro serve`` does — crash/recover of a node is therefore the
   in-process equivalent of stopping and restarting a daemon (the bed
   re-installs the gateway on recover);
3. compile the scenario into a :class:`~repro.sim.faults.FaultPlan`, arm
   it, and — for every ``recover`` event — schedule the replica re-add
   (state transfer) in the same kernel tick;
4. hammer the cluster from
   :class:`~repro.net.client.ThreadedCallers` gateway clients riding
   the session floor (``after_us``), feeding every reply to the
   :class:`~repro.chaos.oracle.InvariantOracle`;
5. emit a JSON-able verdict: the seeded schedule and its hash, injection
   and client tallies, and the oracle's judgement.

Everything that varies is pinned by ``--seed``: the testbed's clock
spread, the transport's per-pair fault streams, and the fault schedule
itself (hashed into the verdict, regression-tested byte-identical).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import trace
from ..control.plane import ControlPlane
from ..net.client import LiveCaller, ThreadedCallers
from ..net.daemon import TimeApp
from ..net.testbed import LiveTestbed
from ..obs import flight
from ..obs.crossnode import CrossNodeSpanAssembler, TraceShardWriter, load_shards
from .oracle import InvariantOracle
from .scenario import ChaosScenario, compile_plan

GROUP = "timesvc"


def oracle_fed_clients(count: int, servers: List,
                       oracle: InvariantOracle) -> ThreadedCallers:
    """``count`` threaded gateway clients (``chaos0``, ``chaos1``, ...)
    whose every served reply the oracle judges.  They pace themselves at
    ~100 req/s each — plenty of load for a verdict."""

    def observe(client_id, value_us, started, finished, outcome) -> None:
        oracle.observe_reply(client_id, value_us, wall_s=finished,
                             rtt_s=finished - started,
                             trace_id=outcome.trace_id)

    return ThreadedCallers(
        [LiveCaller(servers, client_id=f"chaos{i}") for i in range(count)],
        on_reply=observe, pace_s=0.005)


def gateway_tallies(bed: LiveTestbed) -> Dict[str, int]:
    """Client-gateway counters summed over every gateway the bed built
    (a restarted node's old gateway included)."""
    return {name: sum(getattr(g, name) for g in bed.gateways)
            for name in ("requests_injected", "requests_deduplicated",
                         "requests_shed", "replies_replayed")}


def run_chaos(
    scenario: ChaosScenario,
    *,
    seed: int = 0,
    duration_s: Optional[float] = None,
    clients: Optional[int] = None,
    fast_path: bool = True,
    max_staleness_us: int = 2_000,
    artifacts_dir: Optional[str] = None,
) -> Dict:
    """Run one chaos scenario; return the JSON-able verdict.

    With ``artifacts_dir`` set, the run also writes per-node trace
    shards (``trace-*.jsonl``), keeps the flight recorder running (every
    oracle violation dumps its window as ``flight-violation-*.json``),
    and the verdict gains a ``trace`` section with the assembled
    cross-node op timelines.
    """
    duration = duration_s if duration_s is not None else scenario.duration_s
    n_clients = clients if clients is not None else scenario.clients
    plan = compile_plan(scenario)
    shard_writer: Optional[TraceShardWriter] = None
    recorder = None
    if artifacts_dir is not None:
        # Stale contexts from an earlier in-process run must not bleed
        # into this run's timelines.
        trace.BAGGAGE.clear()
        shard_writer = TraceShardWriter(artifacts_dir)
        recorder = flight.RECORDER.start()
        recorder.reset()
    oracle = InvariantOracle(staleness_budget_us=max_staleness_us,
                             flight_recorder=recorder,
                             dump_dir=artifacts_dir)

    byzantine = scenario.auth
    bed = LiveTestbed(node_ids=scenario.node_ids, seed=seed,
                      chaos_seed=seed,
                      auth_secret=f"chaos-{seed}" if byzantine else None)
    try:
        bed.deploy(GROUP, TimeApp, nodes=scenario.node_ids,
                   style="active", time_source="cts",
                   fast_path=fast_path, max_staleness_us=max_staleness_us,
                   byzantine=byzantine)
        bed.start()
        for node_id in scenario.node_ids:
            bed.install_gateway(node_id)
        oracle.attach()
        # A replica scripted to lie or equivocate is Byzantine for the
        # whole run: the oracle judges agreement among the others.
        for event in plan.schedule():
            if event.kind in ("lie", "equivocate"):
                oracle.mark_faulty(event.target[0])

        # Control plane behind the scenario's drain/join events.  A join
        # that first recovers a crashed node rebuilds its stack (the bed
        # re-installs the gateway); the oracle is told, exactly as for a
        # scripted recover.
        plane = ControlPlane(bed, group=GROUP,
                             on_node_ready=oracle.note_recovery)

        def _drain(node_id: str) -> bool:
            oracle.note_reconfig(node_id)
            return plane.drain_async(node_id)

        def _join(node_id: str) -> bool:
            oracle.note_reconfig(node_id)
            return plane.join_async(node_id)

        bed.control_drain = _drain
        bed.control_join = _join

        plan.arm(bed)
        # The daemon-restart half of every recover event: re-add the
        # replica as deployed (state transfer).  Scheduled *after*
        # arming at the same event time, so it runs in the same kernel
        # tick as bed.recover().
        def _restart(node_id: str) -> None:
            oracle.note_recovery(node_id)
            bed.add_replica(GROUP, node_id)

        for event in plan.schedule():
            if event.kind == "recover":
                bed.sim.schedule(event.at_s, _restart, event.target[0])
            elif event.kind == "corrupt-state":
                # The plan's injection (same tick, armed first) scrambles
                # the state; this opens the oracle's repair window.
                bed.sim.schedule(event.at_s, oracle.note_corruption,
                                 event.target[0])

        servers = [bed.node(node_id).address
                   for node_id in scenario.node_ids]
        callers = oracle_fed_clients(n_clients, servers, oracle)
        callers.start()
        bed.pump(duration)
        bed.pump(10.0, until=lambda: plan.done)  # grace for late faults
        callers.stop()
        callers.join()
        bed.run(0.2)  # let in-flight replies drain before judging
        oracle.finish(bed, group=GROUP)

        verdict = {
            "scenario": scenario.name,
            "seed": seed,
            "nodes": list(scenario.node_ids),
            "duration_s": duration,
            "schedule_hash": plan.schedule_hash(),
            "schedule": [event.canonical() for event in plan.schedule()],
            "faults_injected": len(plan.injected),
            "faults_pending": len(plan.events) - len(plan.injected),
            "chaos": {
                "frames_dropped": bed.chaos.frames_dropped,
                "frames_delayed": bed.chaos.frames_delayed,
                "frames_duplicated": bed.chaos.frames_duplicated,
                "frames_blocked": bed.chaos.frames_blocked,
                "frames_perturbed": bed.chaos.frames_perturbed,
            },
            "byzantine": {
                "enabled": byzantine,
                "frames_signed": (
                    bed.auth.frames_signed if bed.auth else 0),
                "frames_verified": (
                    bed.auth.frames_verified if bed.auth else 0),
                "winners_rejected": sum(
                    getattr(getattr(r.time_source, "stats", None),
                            "winners_rejected", 0)
                    for r in bed.replicas(GROUP).values()),
                "stabilizations": sum(
                    getattr(getattr(r.time_source, "stats", None),
                            "stabilizations", 0)
                    for r in bed.replicas(GROUP).values()),
            },
            "clients": callers.report(),
            "gateway": gateway_tallies(bed),
            "reconfig": list(plane.log),
            "oracle": oracle.report(),
        }
        verdict["ok"] = (oracle.ok
                         and plan.done
                         and oracle.replies_checked > 0)
        if shard_writer is not None:
            shard_writer.close()
            shard_writer = None
            verdict["trace"] = _trace_section(artifacts_dir)
            verdict["flight_dumps"] = list(recorder.dumps)
        return verdict
    finally:
        oracle.detach()
        if shard_writer is not None:
            shard_writer.close()
        if recorder is not None:
            recorder.stop()
        bed.shutdown()


def _trace_section(artifacts_dir: str) -> Dict:
    """Assemble the run's shards into the verdict's ``trace`` section."""
    assembler = CrossNodeSpanAssembler()
    records = load_shards(artifacts_dir)
    assembler.add_events(records)
    timelines = assembler.assemble()
    complete = [t for t in timelines if t.complete]
    example = None
    if complete:
        # One fully-stitched end-to-end timeline, spelled out: the
        # acceptance artifact reviewers (and CI) look at first.
        example = complete[0].to_dict()
    return {
        "shard_dir": artifacts_dir,
        "records": len(records),
        "timelines": len(timelines),
        "complete": len(complete),
        "example": example,
    }

