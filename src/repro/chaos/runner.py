"""The judged run, and the ``python -m repro chaos`` harness over it.

:class:`JudgedRun` is the one harness every judged run goes through —
``repro chaos`` on either substrate, the ``repro control`` drivers, the
sharded load generator and the property tests: a bed, an optional
:class:`~repro.sim.faults.FaultPlan`, the
:class:`~repro.chaos.oracle.InvariantOracle` and whatever clients feed
it, in; a JSON-able verdict out.

:func:`run_chaos` is that over real sockets, in process: a
:class:`~repro.net.testbed.LiveTestbed` whose UDP transport is wrapped
in a seeded :class:`~repro.chaos.transport.ChaosTransport`, the daemon's
:class:`~repro.net.daemon.TimeApp` on every node (active replication,
CTS time source, fast path on so the staleness invariant is exercised)
behind a client gateway each, exactly as ``repro serve`` does — so
crash/recover of a node is the in-process equivalent of stopping and
restarting a daemon — hammered by gateway clients
(:class:`~repro.net.client.LiveCaller` under
:class:`~repro.workloads.load.ClockSessions`) that ride the session
floor (``after_us``) as processes on the bed's own kernel, so the oracle
hears every reply and every trace event on the one thread that runs the
loop.

Everything that varies is pinned by ``--seed``: the testbed's clock
spread, the transport's per-pair fault streams, and the fault schedule
itself (hashed into the verdict, regression-tested byte-identical).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from ..control.plane import ControlPlane
from ..errors import ConfigurationError, ReproError
from ..net.client import LiveCaller
from ..net.daemon import TimeApp
from ..net.testbed import LiveTestbed
from ..obs import Bus
from ..obs.flight import FlightRecorder
from ..obs.crossnode import CrossNodeSpanAssembler, TraceShardWriter, load_shards
from ..sim.faults import FaultEvent, FaultPlan
from ..workloads.load import ClockSessions
from .oracle import InvariantOracle
from .scenario import ChaosScenario, compile_plan

GROUP = "timesvc"


class JudgedRun:
    """One run of a bed under the invariant oracle::

        run = JudgedRun(plan, name="smoke", seed=7)
        with run.over(bed, ["timesvc"]):
            ...                      # drive clients that feed run.oracle
        verdict = run.verdict(clients=...)

    It builds the oracle (further keywords are its options), owns the
    :class:`~repro.control.plane.ControlPlane` behind ``drain`` / ``join``
    events, arms the plan so the oracle hears of every injection, gives
    ``recover`` its daemon-restart meaning, and reports a protocol
    failure in the verdict instead of a traceback.  With
    ``artifacts_dir`` it also writes per-node trace shards
    (``trace-*.jsonl``) and keeps the flight recorder running: an oracle
    violation dumps its window as ``flight-violation-*.json``, a
    protocol failure as ``flight-protocol-failure.json``.
    """

    def __init__(self, plan: Optional[FaultPlan] = None, *, name: str = "",
                 seed: int = 0, duration_s: Optional[float] = None,
                 artifacts_dir: Optional[str] = None, **oracle_options):
        self.plan = plan
        self.name = name
        self.seed = seed
        self.duration_s = duration_s
        self.artifacts_dir = artifacts_dir
        #: This run's flight recorder, with an artifacts directory only.
        self.flight = FlightRecorder() if artifacts_dir else None
        self.oracle = InvariantOracle(
            flight_recorder=self.flight, dump_dir=artifacts_dir,
            **oracle_options)
        #: Drives the plan's ``drain`` / ``join`` events; a run over one
        #: group has one, from :meth:`over` on.
        self.plane: Optional[ControlPlane] = None
        #: One entry per failure the kernel surfaced out of the run.
        self.protocol_failures: List[Dict[str, object]] = []
        self.bed = None

    @contextmanager
    def over(self, bed, groups: List[str], *,
             capture: bool = True) -> Iterator["JudgedRun"]:
        """Judge ``bed`` for the length of the block: attach the oracle,
        arm the plan, and on the way out run the oracle's end-of-run
        checks over ``groups``.

        A :class:`~repro.errors.ReproError` escaping the block — the
        kernel surfacing a protocol failure out of ``bed.run`` — is
        recorded under ``protocol_failures`` and the block ends there;
        the verdict reports it.  ``capture=False`` lets it propagate,
        for a caller that has no verdict to put it in.
        """
        self.bed = bed
        bed.record()  # the oracle's end-of-run check reads every commit
        tracer = bed.obs.tracer  # this bed's events, not another's
        writer = None
        if self.artifacts_dir is not None:
            writer = TraceShardWriter(self.artifacts_dir, tracer)
            self.flight.start(tracer)
            if isinstance(bed, LiveTestbed):
                bed.transport.record_frames(self.flight)
        self.oracle.attach(tracer)
        try:
            if len(groups) == 1:
                # A join that first recovers a crashed node rebuilds its
                # stack; the oracle is told, as for a scripted recover.
                self.plane = ControlPlane(
                    bed, group=groups[0],
                    on_node_ready=self.oracle.note_recovery)
            if self.plan is not None:
                # A replica scripted to lie or equivocate is Byzantine
                # for the whole run: the oracle judges agreement among
                # the others.
                for event in self.plan.schedule():
                    if event.kind in ("lie", "equivocate"):
                        self.oracle.mark_faulty(event.target[0])
                self.plan.arm(bed, control=self.plane, after=self._injected)
            try:
                yield self
                self.oracle.finish(bed, groups=groups)
            except ConfigurationError:
                raise  # the harness was misused; that is not a verdict
            except ReproError as failure:
                if not capture:
                    raise
                self._record(failure)
        finally:
            self.oracle.detach()
            if writer is not None:
                writer.close()
                self.flight.stop()

    def _injected(self, event: FaultEvent) -> None:
        """Tell the oracle what the plan just injected — in the kernel
        callback of the injection itself, so no round completes between
        the fault and the oracle hearing of it."""
        if event.kind == "recover":
            # The daemon is restarted with the host: its replicas come
            # back as deployed, via state transfer.
            self.oracle.note_recovery(event.target[0])
            self.bed.redeploy(event.target[0])
        elif event.kind == "corrupt-state":
            self.oracle.note_corruption(event.target[0])
        elif event.kind in ("drain", "join"):
            self.oracle.note_reconfig(event.target[0])

    def _record(self, failure: ReproError) -> None:
        entry: Dict[str, object] = {
            "error": repr(failure),
            "at": self.bed.sim.now,
            "node": getattr(failure, "node", None),
            "flight_dump": None,
        }
        if self.artifacts_dir is not None:
            try:
                entry["flight_dump"] = self.flight.dump(
                    Path(self.artifacts_dir) / "flight-protocol-failure.json",
                    reason="protocol-failure", context=dict(entry))
            except OSError:
                pass  # a full disk must not mask the failure itself
        self.protocol_failures.append(entry)

    def verdict(self, *, require: bool = True, **sections) -> Dict:
        """The JSON-able verdict: header, the caller's ``sections``, the
        oracle's report and the judgement.  ``ok`` needs the oracle
        clean with replies checked, no protocol failure, the whole plan
        injected, and whatever else the caller ``require``s."""
        verdict: Dict = {"seed": self.seed, "nodes": list(self.bed.node_ids)}
        if self.plan is not None:
            verdict.update(
                scenario=self.name,
                duration_s=self.duration_s,
                schedule_hash=self.plan.schedule_hash(),
                schedule=[e.canonical() for e in self.plan.schedule()],
                faults_injected=len(self.plan.injected),
                faults_pending=len(self.plan.events) - len(self.plan.injected),
            )
        verdict.update(sections)
        verdict["oracle"] = self.oracle.report()
        verdict["protocol_failures"] = list(self.protocol_failures)
        verdict["ok"] = bool(
            self.oracle.ok
            and self.oracle.replies_checked > 0
            and not self.protocol_failures
            and (self.plan is None or self.plan.done)
            and require)
        return verdict


@contextmanager
def oracle_fed_clients(count: int, bed: LiveTestbed,
                       oracle: InvariantOracle) -> Iterator[ClockSessions]:
    """``count`` gateway clients (``chaos0``, ``chaos1``, ...) loading
    ``bed`` from its own kernel for the length of the block, every
    served reply judged by the oracle.  All list the servers in bed
    order and pace themselves at ~100 req/s each — plenty of load for a
    verdict.  Read the tallies after the block."""

    def observe(client_id, value_us, started, finished, outcome) -> None:
        oracle.observe_reply(client_id, value_us, wall_s=finished,
                             rtt_s=finished - started,
                             trace_id=outcome.trace_id)

    servers = [bed.node(node_id).address for node_id in bed.node_ids]
    callers = [LiveCaller(bed.kernel, servers, client_id=f"chaos{i}",
                          obs=bed.obs)
               for i in range(count)]
    sessions = ClockSessions(bed.sim, callers, on_reply=observe,
                             pace_s=0.005)
    sessions.start()
    try:
        yield sessions
    finally:
        sessions.stop()
        for caller in callers:
            caller.close()
    bed.run(0.2)  # let in-flight replies drain before judging


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
    obs: Optional[Bus] = None,
) -> Dict:
    """Run one chaos scenario; return the JSON-able verdict.

    With ``artifacts_dir`` set the verdict gains a ``trace`` section
    with the cross-node op timelines assembled from the run's shards,
    and ``flight_dumps``, the flight-recorder artifacts it wrote.
    ``obs`` is the bus the bed records into (its own by default).
    """
    duration = duration_s if duration_s is not None else scenario.duration_s
    n_clients = clients if clients is not None else scenario.clients
    byzantine = scenario.auth
    run = JudgedRun(compile_plan(scenario), name=scenario.name, seed=seed,
                    duration_s=duration, artifacts_dir=artifacts_dir,
                    staleness_budget_us=max_staleness_us)
    with LiveTestbed(node_ids=scenario.node_ids, seed=seed, chaos_seed=seed,
                     auth_secret=f"chaos-{seed}" if byzantine else None,
                     obs=obs) as bed:
        bed.deploy(GROUP, TimeApp, nodes=scenario.node_ids,
                   style="active", time_source="cts",
                   fast_path=fast_path, max_staleness_us=max_staleness_us,
                   byzantine=byzantine)
        bed.start()
        for node_id in scenario.node_ids:
            bed.install_gateway(node_id)
        with run.over(bed, [GROUP]), \
                oracle_fed_clients(n_clients, bed, run.oracle) as clients:
            # A condition wait, not one long run: it surfaces a protocol
            # failure within a poll of its happening.  Late faults get
            # 10 s of grace; the verdict counts any still pending.
            ends = bed.sim.now + duration
            bed.wait_until(
                lambda: bed.sim.now >= (ends if run.plan.done else ends + 10.0),
                timeout=duration + 11.0)

        stats = [replica.time_source.stats
                 for replica in bed.replicas(GROUP).values()]
        sections = {
            "chaos": {name: getattr(bed.chaos, name)
                      for name in ("frames_dropped", "frames_delayed",
                                   "frames_duplicated", "frames_blocked",
                                   "frames_perturbed")},
            "byzantine": {
                "enabled": byzantine,
                "frames_signed": bed.auth.frames_signed if bed.auth else 0,
                "frames_verified": bed.auth.frames_verified if bed.auth else 0,
                "winners_rejected": sum(
                    sum(s.winners_rejected.values()) for s in stats),
                "stabilizations": sum(
                    sum(s.stabilizations.values()) for s in stats),
            },
            "clients": clients.report(),
            "gateway": gateway_tallies(bed),
            "reconfig": list(run.plane.log),
        }
        if artifacts_dir is not None:
            sections["trace"] = _trace_section(artifacts_dir)
            sections["flight_dumps"] = list(run.flight.dumps)
        return run.verdict(**sections)


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
