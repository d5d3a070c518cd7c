"""Command-line front door: ``python -m repro COMMAND``.

``fig NAME`` runs one of the paper's experiments without pytest and
prints the report the benchmark harness produces for it::

    python -m repro fig fig1                 # replica clock divergence
    python -m repro fig fig5 --rounds 2000   # latency PDF with/without CTS
    python -m repro fig ccs  --rounds 5000   # duplicate-suppression counts
    python -m repro fig fig6 --rounds 1500   # skew & drift series
    python -m repro fig failover --seeds 8   # roll-back comparison
    python -m repro fig drift --rounds 800   # compensation ablation
    python -m repro fig recovery             # new-clock integration
    python -m repro fig all                  # everything, quick scale

Live mode (see ``docs/live_mode.md``) — real UDP sockets instead of the
simulator::

    python -m repro serve --node n0 \\
        --peers n0=127.0.0.1:9000,n1=127.0.0.1:9001,n2=127.0.0.1:9002
    python -m repro call gettimeofday --connect 127.0.0.1:9000 --expect 3

Chaos (see ``docs/chaos.md`` and ``docs/sharding.md``) — seeded fault
injection against a live in-process cluster, flat or sharded, judged by
the invariant oracle; ``trace`` renders its cross-node op timelines::

    python -m repro chaos --scenario examples/chaos_partition.json --seed 7 \\
        --artifacts-dir chaos-artifacts
    python -m repro trace --shards chaos-artifacts

Elastic control plane (see ``docs/operations.md``) — live
reconfiguration drills::

    python -m repro control rolling-restart --nodes 3
    python -m repro control sequence --verdict-json verdict.json

Observability (see ``docs/observability.md``): ``--metrics out.jsonl``
records into one telemetry bus that every bed the command builds is
handed, and writes its JSONL + Prometheus-text export; on a ``fig`` run
it then checks that the export is populated end to end.  ``--trace``
streams the bus's protocol trace events to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack, contextmanager
from pathlib import Path
from typing import List, Optional

from . import obs, trace
from .analysis import format_table, summarize
from .errors import ConfigurationError
from .obs import CrossNodeSpanAssembler, MetricsRegistry
from .obs import export as obs_export
from .testbed import STYLES
from .workloads import (
    failover_comparison,
    measure_divergence,
    run_at_size,
    run_drift_ablation,
    run_latency_workload,
    run_partition_cycle,
    run_recovery_workload,
    run_skew_drift_workload,
)


def fig1(args) -> None:
    rows = []
    for label, source in (("local clocks", "local"),
                          ("NTP-disciplined", "ntp"),
                          ("consistent time service", "cts")):
        s = summarize(measure_divergence(source, seed=args.seed, calls=30,
                                         obs=args.obs))
        rows.append([label, f"{s.mean:.1f}", f"{s.maximum:.0f}"])
    print(format_table(["clock source", "mean divergence us", "max us"],
                       rows, title="FIG1 replica clock divergence"))


def fig5(args) -> None:
    without = run_latency_workload(
        time_source="local", invocations=args.rounds, seed=args.seed,
        obs=args.obs)
    with_cts = run_latency_workload(
        time_source="cts", invocations=args.rounds, seed=args.seed,
        obs=args.obs)
    rows = []
    for name, run in (("without CTS", without), ("with CTS", with_cts)):
        s = summarize(run.latencies_us)
        rows.append([name, f"{s.mean:.1f}", f"{s.p50:.0f}", f"{s.p90:.0f}"])
    print(format_table(["configuration", "mean us", "p50", "p90"], rows,
                       title=f"FIG5 end-to-end latency ({args.rounds} calls)"))
    overhead = summarize(with_cts.latencies_us).mean - summarize(
        without.latencies_us).mean
    print(f"overhead: {overhead:+.1f} us  (paper: ≈ +300 us)")


def ccs(args) -> None:
    run = run_latency_workload(
        time_source="cts", invocations=args.rounds, seed=args.seed,
        coalesce=args.coalesce, obs=args.obs)
    rows = [[node, count, f"{count / max(1, run.rounds):.2%}"]
            for node, count in sorted(run.ccs_transmitted.items())]
    rows.append(["total", sum(run.ccs_transmitted.values()),
                 f"rounds={run.rounds}"])
    print(format_table(["node", "CCS transmitted", "share"], rows,
                       title="TAB-CCS duplicate suppression "
                             "(paper: 1 / 9977 / 22)"))
    per_op = (sum(run.ccs_transmitted.values()) / run.ops_completed
              if run.ops_completed else 0.0)
    print(f"clock ops per replica: {run.ops_completed}  "
          f"coalesced: {run.ops_coalesced}  "
          f"CCS messages/op: {per_op:.3f}")


def fig6(args) -> None:
    result = run_skew_drift_workload(rounds=args.rounds, seed=args.seed,
                                     obs=args.obs)
    print(f"FIG6 skew & drift over {args.rounds} rounds")
    print(f"  synchronizer totals: {result.winner_counts()}")
    first_winner = result.winners[0]
    offsets = result.series[first_winner].offsets()
    print(f"  offset of first-round winner {first_winner}: "
          f"{offsets[0]} -> {offsets[-1]} us")
    print(f"  group clock drift vs real time: "
          f"{result.group_drift_ppm() / 1e4:+.2f}%")
    print(f"  CCS transmitted: {result.ccs_transmitted} "
          f"(total {result.total_transmitted} == rounds)")


def failover(args) -> None:
    summary = failover_comparison(range(args.seed, args.seed + args.seeds),
                                  obs=args.obs)
    rows = []
    for source in ("primary-backup", "cts"):
        data = summary[source]
        rows.append([source, data["rollbacks"], data["fast_forwards"],
                     f"{data['worst_step_us'] / 1e6:+.3f}"])
    print(format_table(
        ["time source", "roll-backs", "fast-forwards", "worst step (s)"],
        rows, title=f"EXT-FAILOVER over {args.seeds} seeds"))


def drift(args) -> None:
    results, mean_delay = run_drift_ablation(rounds=args.rounds,
                                             seed=args.seed, obs=args.obs)
    rows = [[label, f"{results[name].group_drift_ppm() / 1e4:+.2f}%"]
            for name, label in (
                ("none", "none"),
                ("mean-delay", f"mean-delay ({mean_delay} us)"),
                ("reference-steering", "reference steering"))]
    print(format_table(["strategy", "drift vs real time"], rows,
                       title=f"EXT-DRIFT ablation ({args.rounds} rounds)"))


def recovery(args) -> None:
    result = run_recovery_workload(seed=args.seed, obs=args.obs)
    print("EXT-RECOVERY new-clock integration")
    print(f"  monotone across join:   {result.monotone}")
    print(f"  joiner consistent:      {result.joiner_consistent}")
    print(f"  offset adoptions:       {result.recovery_adoptions}")
    print(f"  integration time:       {result.integration_time_s * 1000:.1f} ms")


def partition(args) -> None:
    outcome = run_partition_cycle(args.seed, obs=args.obs)
    print("EXT-PARTITION primary-component cycle")
    print(f"  n3 partitioned away; suspended: "
          f"{outcome['minority_suspended']}")
    print(f"  clock monotone through the cycle: {outcome['monotone']}")
    print(f"  n3 rejoined with state {outcome['rejoined_count']} "
          f"(majority {outcome['majority_count']})")


def scale(args) -> None:
    rows = []
    for replicas in (2, 3, 4, 5):
        latency, _, _ = run_at_size(replicas, calls=60, seed=args.seed,
                                    obs=args.obs)
        rows.append([replicas, f"{latency.p50:.0f}", f"{latency.p90:.0f}"])
    print(format_table(["replicas", "p50 latency (us)", "p90 (us)"], rows,
                       title="EXT-SCALE group-size sweep"))


#: ``repro fig NAME``: figure name -> the function that prints it, in
#: the order ``repro fig all`` prints them.
FIGURES = {figure.__name__: figure for figure in (
    fig1, fig5, ccs, fig6, failover, drift, recovery, partition, scale)}
FIGURE_NAMES = (*FIGURES, "all")


def _positive_int(text: str) -> int:
    """The type of every size option: an integer of at least 1."""
    if not text.isdigit() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"not a positive integer: {text!r}")
    return int(text)


def _positive_seconds(text: str) -> float:
    """The type of ``--duration`` and ``--timeout``: finite seconds > 0."""
    try:
        if 0 < float(text) < float("inf"):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not a positive duration: {text!r}")


def cmd_fig(args) -> int:
    """Print one figure, or with ``all`` each figure after a blank line."""
    if args.target != "all":
        FIGURES[args.target](args)
    else:
        for figure in FIGURES.values():
            print()
            figure(args)
    return 0


def _check_export(registry: MetricsRegistry,
                  assembler: CrossNodeSpanAssembler) -> int:
    """``--metrics`` on a ``fig`` run: print the registry and the round
    spans; fail (1) on an empty counter family, histogram or span list."""
    print(obs_export.summary_table(
        registry, title="OBS-SMOKE registry after the run"))
    spans = assembler.round_spans()
    print(f"round spans: {len(spans)} completed; "
          f"synchronizers: {assembler.winner_counts()}")
    failures = [
        f"counter family {name} is empty"
        for name in ("ccs_rounds_total", "ccs_sent_total", "cts_ops_total",
                     "net_frames_sent_total", "totem_tokens_forwarded_total")
        if not (registry.get(name) and registry.get(name).total())
    ]
    latency = registry.get("cts_round_latency_us")
    if not (latency and latency.total_count()):
        failures.append("round-latency histogram is empty")
    if not spans:
        failures.append("no round spans were assembled")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def _parse_addresses(spec: str):
    """``host:port[,host:port...]`` -> [(host, port), ...]."""
    addresses = []
    for entry in filter(None, map(str.strip, spec.split(","))):
        try:
            host, port = entry.rsplit(":", 1)
            if not 0 <= int(port) <= 65535:
                raise ValueError(port)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad address {entry!r}; expected host:port") from None
        addresses.append((host.strip(), int(port)))
    if not addresses:
        raise argparse.ArgumentTypeError("no server addresses")
    return addresses


def _parse_peer_map(spec: str):
    """``n0=127.0.0.1:9000,n1=...`` -> {node_id: (host, port)}."""
    peers = {}
    for entry in filter(None, map(str.strip, spec.split(","))):
        node_id, _, address = entry.partition("=")
        try:
            peers[node_id.strip()] = _parse_addresses(address)[0]
        except argparse.ArgumentTypeError:
            raise argparse.ArgumentTypeError(
                f"bad peer entry {entry!r}; expected name=host:port") from None
    if not peers:
        raise argparse.ArgumentTypeError("empty peer map")
    return peers


def cmd_serve(args) -> int:
    from .net.daemon import DaemonConfig, NodeDaemon

    config = DaemonConfig(
        node_id=args.node,
        peers=args.peers,
        group=args.group,
        style=args.style,
        time_options=dict(coalesce=args.coalesce, fast_path=args.fast_path,
                          max_staleness_us=args.max_staleness_us),
        clock_epoch_us=args.clock_offset_us,
        clock_drift_ppm=args.clock_drift_ppm,
        join_existing=args.join,
        metrics_port=args.metrics_port,
        trace_dir=args.trace_dir,
        auth_key=args.auth_key,
    )
    try:
        daemon = NodeDaemon(config, obs=args.obs)
    except (KeyError, ConfigurationError) as error:
        print(f"serve: {error.args[0]}", file=sys.stderr)
        return 2
    daemon.serve_forever()
    return 0


def cmd_call(args) -> int:
    from .errors import RpcTimeout
    from .net.client import LiveCaller
    from .net.kernel import LiveKernel

    method = args.target or "gettimeofday"
    kernel = LiveKernel()
    caller = LiveCaller(kernel, args.connect, group=args.group, obs=args.obs)
    status = 0
    previous_micros = None
    try:
        for index in range(args.calls):
            try:
                outcome = kernel.run_process(caller.call(
                    method, timeout=args.timeout, expect_replies=args.expect))
            except RpcTimeout as error:
                print(f"call {index}: TIMEOUT ({error})")
                status = 1
                continue
            values = outcome.values
            agreed = "agree" if outcome.agreed else "DISAGREE"
            if not outcome.agreed or len(values) < args.expect:
                status = 1
            detail = ", ".join(
                f"{sender}={value}" for sender, value in sorted(values.items()))
            print(f"call {index}: {method} -> {len(values)} replies "
                  f"[{agreed}] in {outcome.latency_us} us  {detail}")
            # Group-clock reads must also advance monotonically.
            sample = next(iter(values.values()))
            if isinstance(sample, dict) and "micros" in sample:
                micros = sample["micros"]
                if previous_micros is not None and micros <= previous_micros:
                    print(f"call {index}: NOT MONOTONIC "
                          f"({micros} <= {previous_micros})")
                    status = 1
                previous_micros = micros
    finally:
        caller.close()
        kernel.close()
    return status


def cmd_chaos(args) -> int:
    """Run a chaos scenario against a live in-process cluster.

    Prints the JSON verdict (schedule hash, fault tallies, client
    tallies, oracle judgement) to stdout; exit status 0 iff the
    invariant oracle saw zero violations and every fault was injected.
    """
    from .chaos import load_scenario, run_chaos
    from .shard import run_shard_chaos

    try:
        scenario = load_scenario(args.scenario)
    except (OSError, ConfigurationError, ValueError) as error:
        print(f"chaos: {error}", file=sys.stderr)
        return 2
    runner = run_shard_chaos if scenario.shards is not None else run_chaos
    verdict = runner(
        scenario,
        seed=args.seed,
        duration_s=args.duration,
        clients=args.clients,
        max_staleness_us=args.max_staleness_us,
        artifacts_dir=args.artifacts_dir,
        obs=args.obs,
    )
    return _emit_verdict(verdict, args)


def _emit_verdict(verdict, args) -> int:
    """Print the JSON verdict (and write it to ``--verdict-json``);
    exit status 0 iff the run was judged ok."""
    text = json.dumps(verdict, indent=2, sort_keys=True)
    print(text)
    if args.verdict_json:
        path = Path(args.verdict_json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
    return 0 if verdict["ok"] else 1


def cmd_control(args) -> int:
    """Elastic-control-plane drivers against a live in-process cluster.

    ``control rolling-restart`` cycles every daemon of a live group
    under sustained client load, each restart gated on full
    re-admission; ``control sequence`` runs the acceptance script (join
    a 4th replica, drain the original primary, rolling-restart the
    rest).  Prints the JSON verdict; exit status 0 iff every step
    completed and the invariant oracle saw zero violations.
    """
    from .control.rolling import run_reconfig_sequence, run_rolling_restart

    action = args.target or "rolling-restart"
    clients = args.clients if args.clients is not None else 4
    common = dict(
        seed=args.seed,
        clients=clients,
        require_rounds=args.require_rounds,
        fast_path=args.fast_path,
        max_staleness_us=args.max_staleness_us,
        obs=args.obs,
    )
    if action == "rolling-restart":
        verdict = run_rolling_restart(num_nodes=args.nodes, **common)
    elif action == "sequence":
        verdict = run_reconfig_sequence(**common)
    else:
        print(f"control: unknown action {action!r} "
              "(expected rolling-restart or sequence)", file=sys.stderr)
        return 2
    return _emit_verdict(verdict, args)


def cmd_trace(args) -> int:
    """Render cross-node op timelines assembled from trace shards.

    Reads the per-node ``trace-*.jsonl`` shard files a chaos run (with
    ``--artifacts-dir``) or a daemon (with ``--trace-dir``) wrote,
    stitches them with the :class:`~repro.obs.crossnode.CrossNodeSpanAssembler`,
    and prints one timeline per trace id — as a table, or as JSONL with
    ``--jsonl`` for downstream tooling.
    """
    from .obs.crossnode import assemble_timelines

    if not Path(args.shards).is_dir():
        print(f"trace: {args.shards} is not a directory", file=sys.stderr)
        return 2
    timelines = assemble_timelines(args.shards)
    if args.trace_id:
        timelines = [t for t in timelines if t.trace_id == args.trace_id]
        if not timelines:
            print(f"trace: no timeline with id {args.trace_id}",
                  file=sys.stderr)
            return 1
    complete = sum(1 for t in timelines if t.complete)
    shown = timelines[:args.limit] if args.limit else timelines
    if args.jsonl:
        for timeline in shown:
            print(json.dumps(timeline.to_dict(), sort_keys=True))
        return 0 if timelines else 1
    rows = []
    for timeline in shown:
        rows.append([
            timeline.trace_id,
            timeline.client,
            timeline.method or "-",
            "yes" if timeline.complete else "no",
            len(timeline.hops),
            " > ".join(f"{h.stage}@{h.node}" for h in timeline.hops),
        ])
    if not rows:
        print(f"no timelines assembled from {args.shards}", file=sys.stderr)
        return 1
    print(format_table(
        ["trace id", "client", "method", "complete", "hops", "path"],
        rows,
        title=f"TRACE {len(timelines)} op timelines "
              f"({complete} complete) from {args.shards}"))
    if args.limit and len(timelines) > args.limit:
        print(f"... {len(timelines) - args.limit} more "
              f"(raise --limit or use --jsonl)", file=sys.stderr)
    return 0


COMMANDS = {
    "fig": cmd_fig,
    "serve": cmd_serve,
    "call": cmd_call,
    "chaos": cmd_chaos,
    "control": cmd_control,
    "trace": cmd_trace,
}

#: Command -> the options it cannot run without.
REQUIRED = {"serve": ("node", "peers"), "call": ("connect",),
            "chaos": ("scenario",), "trace": ("shards",)}


@contextmanager
def _observability(args):
    """Wrap one command in the telemetry the flags asked for.

    Either flag builds one :class:`~repro.obs.Bus` as ``args.obs``,
    which the command hands to every bed it builds (so ``fig failover``
    sums its beds per label); with neither each bed keeps its own.
    ``--metrics PATH`` records into it and collects its trace events,
    and on exit writes a JSONL export to PATH plus a Prometheus text
    exposition next to it; the block receives the span assembler those
    events are folded into.  ``--trace`` streams every protocol trace
    event to stderr as it happens.
    """
    if not (args.trace or args.metrics):
        yield None
        return
    bus = args.obs = obs.Bus()
    events: List[trace.TraceEvent] = []
    spans = CrossNodeSpanAssembler()
    with ExitStack() as stack:
        if args.trace:
            stack.callback(bus.tracer.subscribe(
                lambda event: print(str(event), file=sys.stderr)))
        if not args.metrics:
            yield None
            return
        stack.enter_context(bus.metrics.session())
        stack.callback(bus.tracer.subscribe(events.append))
        try:
            yield spans
        finally:
            stack.close()
            spans.add_events(map(obs_export.trace_event_record, events))
            path = Path(args.metrics)
            written = obs_export.write_jsonl(
                bus.metrics, path,
                trace_events=events, spans=spans.round_spans())
            prom_path = path.with_suffix(".prom")
            prom_path.write_text(obs_export.prometheus_text(bus.metrics))
            print(f"[obs] wrote {written} records to {path} and a "
                  f"Prometheus exposition to {prom_path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the paper's experiments (DSN 2003 consistent "
                    "time service reproduction).",
    )
    parser.add_argument("experiment", choices=sorted(COMMANDS),
                        help="'fig' runs one of the paper's experiments")
    parser.add_argument("target", nargs="?", default=None,
                        help=f"figure for 'fig' ({' | '.join(FIGURE_NAMES)}), "
                             "method for 'call' (default gettimeofday), "
                             "action for 'control'")
    parser.add_argument("--rounds", type=_positive_int, default=500,
                        help="workload size (invocations / rounds)")
    parser.add_argument("--seeds", type=_positive_int, default=6,
                        help="seed-sweep width (failover)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root RNG seed")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="enable the metrics registry and write a JSONL "
                             "export to PATH (plus PATH with a .prom suffix "
                             "in Prometheus text exposition format)")
    parser.add_argument("--trace", action="store_true",
                        help="stream protocol trace events to stderr")
    # The telemetry bus the command's beds share (set by --metrics or
    # --trace; None: each bed keeps its own).
    parser.set_defaults(obs=None)
    svc = parser.add_argument_group(
        "time service tuning",
        "CTS options for 'serve', 'fig ccs' and 'control'")
    svc.add_argument("--no-coalesce", dest="coalesce", action="store_false",
                     help="serial replica execution: reads never overlap, "
                          "so every CCS round covers one operation (same "
                          "protocol, the paper's base case)")
    svc.add_argument("--fast-path", action="store_true",
                     help="serve drift-bounded reads locally between "
                          "rounds (relaxes cross-replica agreement within "
                          "the staleness budget)")
    svc.add_argument("--max-staleness-us", type=int, default=2_000,
                     help="fast path staleness budget in microseconds")
    chaos = parser.add_argument_group(
        "chaos", "options for 'chaos' (see docs/chaos.md)")
    chaos.add_argument("--scenario", default=None, metavar="FILE",
                       help="chaos: scenario file (JSON, see docs/chaos.md)")
    chaos.add_argument("--duration", type=_positive_seconds, default=None,
                       help="chaos: run length in seconds (default from "
                            "the scenario file)")
    chaos.add_argument("--clients", type=_positive_int, default=None,
                       help="chaos: gateway client threads (default from "
                            "the scenario file)")
    chaos.add_argument("--artifacts-dir", default=None, metavar="DIR",
                       help="chaos: write trace shards and flight-recorder "
                            "dumps into DIR and add the assembled cross-"
                            "node timelines to the verdict")
    chaos.add_argument("--verdict-json", default=None, metavar="PATH",
                       help="chaos: also write the verdict JSON to PATH "
                            "(for CI artifact upload)")
    control = parser.add_argument_group(
        "control plane",
        "options for 'control' (rolling-restart | sequence; "
        "see docs/operations.md)")
    control.add_argument("--nodes", type=_positive_int, default=3,
                         help="control rolling-restart: cluster size")
    control.add_argument("--require-rounds", type=int, default=1,
                         help="control: CCS rounds a re-admitted node "
                              "must complete before the next step")
    tracecmd = parser.add_argument_group(
        "trace", "options for 'trace' (cross-node timeline rendering)")
    tracecmd.add_argument("--shards", default=None, metavar="DIR",
                          help="trace: directory of trace-*.jsonl shards "
                               "(chaos --artifacts-dir / serve --trace-dir)")
    tracecmd.add_argument("--jsonl", action="store_true",
                          help="trace: emit one JSON timeline per line "
                               "instead of a table")
    tracecmd.add_argument("--trace-id", default=None,
                          help="trace: show only this trace id")
    tracecmd.add_argument("--limit", type=int, default=20,
                          help="trace: timelines to render (0 = all)")
    live = parser.add_argument_group(
        "live mode", "options for 'serve' and 'call' (see docs/live_mode.md)")
    live.add_argument("--node", default=None,
                      help="serve: this daemon's node id (must be in --peers)")
    live.add_argument("--peers", type=_parse_peer_map, metavar="MAP",
                      help="serve: ring address book, "
                           "n0=host:port,n1=host:port,... (same on every node)")
    live.add_argument("--connect", type=_parse_addresses, metavar="ADDRS",
                      help="call: daemon addresses, host:port[,host:port...]")
    live.add_argument("--calls", type=_positive_int, default=5,
                      help="call: number of sequential invocations")
    live.add_argument("--expect", type=_positive_int, default=1,
                      help="call: replies to collect per invocation (the group "
                           "size to compare them all; the gateway is asked again)")
    live.add_argument("--timeout", type=_positive_seconds, default=2.0,
                      help="call: per-invocation timeout in seconds")
    live.add_argument("--style", default="active",
                      choices=sorted(STYLES),
                      help="serve: replication style")
    live.add_argument("--group", default="timesvc",
                      help="group name served / called")
    live.add_argument("--clock-offset-us", type=int, default=0,
                      help="serve: injected wall-clock epoch offset (us)")
    live.add_argument("--clock-drift-ppm", type=float, default=0.0,
                      help="serve: injected wall-clock drift (ppm)")
    live.add_argument("--join", action="store_true",
                      help="serve: join an already-running group "
                           "(recovering replica)")
    live.add_argument("--metrics-port", type=int, default=None,
                      help="serve: expose /metrics (Prometheus text), "
                           "/metrics.json and /healthz on this port")
    live.add_argument("--trace-dir", default=None, metavar="DIR",
                      help="serve: write this node's trace shard "
                           "(trace-<node>.jsonl) into DIR and keep the "
                           "flight recorder running (dumped on crash)")
    live.add_argument("--auth-key", default=None, metavar="SECRET",
                      help="serve: shared secret for the authenticated "
                           "Byzantine-tolerant mode — ring frames carry "
                           "HMACs and the time service filters implausible "
                           "round winners (same secret on every daemon)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment == "fig" and args.target not in FIGURE_NAMES:
        parser.error(f"fig needs a figure: {' | '.join(FIGURE_NAMES)}")
    for name in REQUIRED.get(args.experiment, ()):
        if not getattr(args, name):
            parser.error(f"{args.experiment} requires --{name}")
    if args.metrics is not None:
        # Fail before the experiment runs, not after: an unwritable
        # export path would otherwise waste the whole run.
        if not args.metrics:
            parser.error("argument --metrics: path must not be empty")
        path = Path(args.metrics)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.touch()
        except OSError as error:
            parser.error(f"cannot write metrics file {path}: {error}")
    with _observability(args) as spans:
        status = COMMANDS[args.experiment](args)
    if spans is not None and args.experiment == "fig":
        status |= _check_export(args.obs.metrics, spans)
    return status


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
