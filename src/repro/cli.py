"""Command-line experiment runner: ``python -m repro <experiment>``.

Runs the paper's experiments without pytest and prints the same reports
the benchmark harness produces.  Intended for quick exploration::

    python -m repro fig1                 # replica clock divergence
    python -m repro fig5 --rounds 2000   # latency PDF with/without CTS
    python -m repro ccs  --rounds 5000   # duplicate-suppression counts
    python -m repro fig6 --rounds 1500   # skew & drift series
    python -m repro failover --seeds 8   # roll-back comparison
    python -m repro drift --rounds 800   # compensation ablation
    python -m repro recovery             # new-clock integration
    python -m repro metrics              # observability export smoke
    python -m repro all                  # everything, quick scale
    python -m pytest benchmarks/test_throughput.py::test_coalescing_trajectory

Live mode (see ``docs/live_mode.md``) — real UDP sockets instead of the
simulator::

    python -m repro serve --node n0 \\
        --peers n0=127.0.0.1:9000,n1=127.0.0.1:9001,n2=127.0.0.1:9002
    python -m repro call gettimeofday --connect 127.0.0.1:9000 --expect 3

Chaos (see ``docs/chaos.md``) — seeded fault injection against a live
in-process cluster, judged by the invariant oracle::

    python -m repro chaos --scenario examples/chaos_partition.json --seed 7 \\
        --artifacts-dir chaos-artifacts
    python -m repro trace --shards chaos-artifacts
    python -m pytest benchmarks/test_throughput.py::test_faults_on_throughput

Sharded time domains (see ``docs/sharding.md``) — N rings, a routing
tier, and the gradient sync overlay bounding inter-shard skew::

    python -m pytest benchmarks/test_shard_scaling.py
    python -m repro chaos --scenario examples/chaos_shards.json --seed 7

Elastic control plane (see ``docs/operations.md``) — live
reconfiguration and overload drills::

    python -m repro control rolling-restart --nodes 3
    python -m repro control sequence --verdict-json verdict.json
    python -m pytest benchmarks/test_overload.py

Observability: every experiment accepts ``--metrics out.jsonl`` (enable
the metrics registry and dump a JSONL + Prometheus-text export) and
``--trace`` (stream protocol trace events to stderr); see
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import List, Optional

from . import obs, trace
from .analysis import format_table, summarize
from .obs import export as obs_export
from .core import (
    AlignedReferenceSteering,
    MeanDelayCompensation,
    NoCompensation,
)
from .sim import US_PER_SEC
from .testbed import STYLES
from .workloads import (
    failover_comparison,
    measure_divergence,
    run_at_size,
    run_latency_workload,
    run_partition_cycle,
    run_recovery_workload,
    run_skew_drift_workload,
)


def cmd_fig1(args) -> int:
    rows = []
    for label, source in (("local clocks", "local"),
                          ("NTP-disciplined", "ntp"),
                          ("consistent time service", "cts")):
        s = summarize(measure_divergence(source, seed=args.seed, calls=30))
        rows.append([label, f"{s.mean:.1f}", f"{s.maximum:.0f}"])
    print(format_table(["clock source", "mean divergence us", "max us"],
                       rows, title="FIG1 replica clock divergence"))
    return 0


def cmd_fig5(args) -> int:
    without = run_latency_workload(
        time_source="local", invocations=args.rounds, seed=args.seed)
    with_cts = run_latency_workload(
        time_source="cts", invocations=args.rounds, seed=args.seed)
    rows = []
    for name, run in (("without CTS", without), ("with CTS", with_cts)):
        s = summarize(run.latencies_us)
        rows.append([name, f"{s.mean:.1f}", f"{s.p50:.0f}", f"{s.p90:.0f}"])
    print(format_table(["configuration", "mean us", "p50", "p90"], rows,
                       title=f"FIG5 end-to-end latency ({args.rounds} calls)"))
    overhead = summarize(with_cts.latencies_us).mean - summarize(
        without.latencies_us).mean
    print(f"overhead: {overhead:+.1f} us  (paper: ≈ +300 us)")
    return 0


def cmd_ccs(args) -> int:
    run = run_latency_workload(
        time_source="cts", invocations=args.rounds, seed=args.seed,
        coalesce=args.coalesce)
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
    return 0


def cmd_fig6(args) -> int:
    result = run_skew_drift_workload(rounds=args.rounds, seed=args.seed)
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
    return 0


def cmd_failover(args) -> int:
    summary = failover_comparison(range(args.seed, args.seed + args.seeds))
    rows = []
    for source in ("primary-backup", "cts"):
        data = summary[source]
        rows.append([source, data["rollbacks"], data["fast_forwards"],
                     f"{data['worst_step_us'] / 1e6:+.3f}"])
    print(format_table(
        ["time source", "roll-backs", "fast-forwards", "worst step (s)"],
        rows, title=f"EXT-FAILOVER over {args.seeds} seeds"))
    return 0


def cmd_drift(args) -> int:
    plain = run_skew_drift_workload(rounds=args.rounds, seed=args.seed,
                                    drift=NoCompensation())
    series = next(iter(plain.series.values()))
    real = (series.times_s[-1] - series.times_s[0]) * US_PER_SEC
    group = series.history[-1][0] - series.history[0][0]
    mean_delay = max(1, int((real - group) / args.rounds))
    compensated = run_skew_drift_workload(
        rounds=args.rounds, seed=args.seed,
        drift=MeanDelayCompensation(mean_delay))
    steered = run_skew_drift_workload(
        rounds=args.rounds, seed=args.seed,
        drift_factory=lambda bed: AlignedReferenceSteering(
            lambda: int(bed.sim.now * US_PER_SEC), proportion=0.2))
    rows = [
        ["none", f"{plain.group_drift_ppm() / 1e4:+.2f}%"],
        [f"mean-delay ({mean_delay} us)",
         f"{compensated.group_drift_ppm() / 1e4:+.2f}%"],
        ["reference steering", f"{steered.group_drift_ppm() / 1e4:+.2f}%"],
    ]
    print(format_table(["strategy", "drift vs real time"], rows,
                       title=f"EXT-DRIFT ablation ({args.rounds} rounds)"))
    return 0


def cmd_recovery(args) -> int:
    result = run_recovery_workload(seed=args.seed)
    print("EXT-RECOVERY new-clock integration")
    print(f"  monotone across join:   {result.monotone}")
    print(f"  joiner consistent:      {result.joiner_consistent}")
    print(f"  offset adoptions:       {result.recovery_adoptions}")
    print(f"  integration time:       {result.integration_time_s * 1000:.1f} ms")
    return 0


def cmd_partition(args) -> int:
    outcome = run_partition_cycle(args.seed)
    print("EXT-PARTITION primary-component cycle")
    print(f"  n3 partitioned away; suspended: "
          f"{outcome['minority_suspended']}")
    print(f"  clock monotone through the cycle: {outcome['monotone']}")
    print(f"  n3 rejoined with state {outcome['rejoined_count']} "
          f"(majority {outcome['majority_count']})")
    return 0


def cmd_scale(args) -> int:
    rows = []
    for replicas in (2, 3, 4, 5):
        latency, _, _ = run_at_size(replicas, calls=60, seed=args.seed)
        rows.append([replicas, f"{latency.p50:.0f}", f"{latency.p90:.0f}"])
    print(format_table(["replicas", "p50 latency (us)", "p90 (us)"], rows,
                       title="EXT-SCALE group-size sweep"))
    return 0


def cmd_metrics(args) -> int:
    """Observability smoke test.

    Runs the CCS workload with the metrics registry and span tracker
    enabled and checks the export end to end: the CCS and wire counter
    families are present and non-zero, the round-latency histogram is
    populated and round spans were assembled.  Exit status 0 only if all
    of that holds.  (Counter families are read from the counters the
    harness itself reports, so there is no second copy to compare.)
    """
    tracker = obs.RoundSpanTracker()
    with obs.REGISTRY.session(), tracker:
        run_latency_workload(
            time_source="cts", invocations=args.rounds, seed=args.seed)
    print(obs_export.summary_table(
        obs.REGISTRY, title="OBS-SMOKE registry after the run"))
    spans = tracker.completed()
    print(f"round spans: {len(spans)} completed; "
          f"synchronizers: {tracker.winner_counts()}")
    failures = [
        f"counter family {name} is empty"
        for name in ("ccs_rounds_total", "ccs_sent_total", "cts_ops_total",
                     "net_frames_sent_total", "totem_tokens_forwarded_total")
        if not obs.REGISTRY.get(name).total()
    ]
    if not obs.REGISTRY.get("cts_round_latency_us").total_count():
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

    if not args.node or not args.peers:
        print("serve requires --node and --peers (name=host:port,...)",
              file=sys.stderr)
        return 2
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
        daemon = NodeDaemon(config)
    except KeyError as error:
        print(f"serve: {error.args[0]}", file=sys.stderr)
        return 2
    daemon.serve_forever()
    return 0


def cmd_call(args) -> int:
    from .errors import RpcTimeout
    from .net.client import LiveCaller
    from .net.kernel import LiveKernel

    if not args.connect:
        print("call requires --connect host:port[,host:port...]",
              file=sys.stderr)
        return 2
    method = args.target or "gettimeofday"
    kernel = LiveKernel()
    caller = LiveCaller(kernel, args.connect, group=args.group)
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
    from .errors import ConfigurationError
    from .shard import run_shard_chaos

    if not args.scenario:
        print("chaos requires --scenario FILE (see docs/chaos.md)",
              file=sys.stderr)
        return 2
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
    )
    return _emit_verdict(verdict, args)


def _emit_verdict(verdict, args) -> int:
    """Print the JSON verdict (and write it to ``--verdict-json``);
    exit status 0 iff the run was judged ok."""
    import json

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
    import json

    from .obs.crossnode import assemble_timelines

    if not args.shards:
        print("trace requires --shards DIR (a chaos --artifacts-dir or "
              "serve --trace-dir directory)", file=sys.stderr)
        return 2
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


def cmd_all(args) -> int:
    status = 0
    for command in (cmd_fig1, cmd_fig5, cmd_ccs, cmd_fig6, cmd_failover,
                    cmd_drift, cmd_recovery, cmd_partition, cmd_scale):
        print()
        status |= command(args)
    return status


COMMANDS = {
    "fig1": cmd_fig1,
    "fig5": cmd_fig5,
    "ccs": cmd_ccs,
    "fig6": cmd_fig6,
    "failover": cmd_failover,
    "drift": cmd_drift,
    "recovery": cmd_recovery,
    "partition": cmd_partition,
    "scale": cmd_scale,
    "metrics": cmd_metrics,
    "all": cmd_all,
    "serve": cmd_serve,
    "call": cmd_call,
    "chaos": cmd_chaos,
    "control": cmd_control,
    "trace": cmd_trace,
}


@contextmanager
def _observability(args):
    """Wrap one command in the telemetry the flags asked for.

    ``--metrics PATH`` enables the registry, collects trace events and
    round spans, and on exit writes a JSONL export to PATH plus a
    Prometheus text exposition next to it.  ``--trace`` streams every
    protocol trace event to stderr as it happens.
    """
    metrics_path = getattr(args, "metrics", None)
    tracing = getattr(args, "trace", False)
    if not metrics_path and not tracing:
        yield
        return
    events: List[trace.TraceEvent] = []
    tracker = obs.RoundSpanTracker()
    unsubscribes = []
    if metrics_path:
        obs.REGISTRY.reset()
        obs.REGISTRY.enable()
        tracker.attach()
        unsubscribes.append(trace.subscribe(events.append))
    if tracing:
        unsubscribes.append(trace.subscribe(
            lambda event: print(str(event), file=sys.stderr)))
    try:
        yield
    finally:
        for unsubscribe in unsubscribes:
            unsubscribe()
        tracker.detach()
        if metrics_path:
            obs.REGISTRY.disable()
            path = Path(metrics_path)
            written = obs_export.write_jsonl(
                obs.REGISTRY, path,
                trace_events=events, spans=tracker.completed())
            prom_path = path.with_suffix(".prom")
            prom_path.write_text(obs_export.prometheus_text(obs.REGISTRY))
            print(f"[obs] wrote {written} records to {path} and a "
                  f"Prometheus exposition to {prom_path}", file=sys.stderr)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run the paper's experiments (DSN 2003 consistent "
                    "time service reproduction).",
    )
    parser.add_argument("experiment", choices=sorted(COMMANDS),
                        help="which experiment to run (or 'serve'/'call' "
                             "for live mode)")
    parser.add_argument("target", nargs="?", default=None,
                        help="method name for 'call' (default gettimeofday)")
    parser.add_argument("--rounds", type=int, default=500,
                        help="workload size (invocations / rounds)")
    parser.add_argument("--seeds", type=int, default=6,
                        help="seed-sweep width (failover)")
    parser.add_argument("--seed", type=int, default=0,
                        help="root RNG seed")
    parser.add_argument("--metrics", metavar="PATH", default=None,
                        help="enable the metrics registry and write a JSONL "
                             "export to PATH (plus PATH with a .prom suffix "
                             "in Prometheus text exposition format)")
    parser.add_argument("--trace", action="store_true",
                        help="stream protocol trace events to stderr")
    svc = parser.add_argument_group(
        "time service tuning", "CTS options for 'serve', 'ccs' and 'control'")
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
    chaos.add_argument("--duration", type=float, default=None,
                       help="chaos: run length in seconds (default from "
                            "the scenario file)")
    chaos.add_argument("--clients", type=int, default=None,
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
    control.add_argument("--nodes", type=int, default=3,
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
    live.add_argument("--calls", type=int, default=5,
                      help="call: number of sequential invocations")
    live.add_argument("--expect", type=int, default=1,
                      help="call: replies to collect per invocation (the group "
                           "size to compare them all; the gateway is asked again)")
    live.add_argument("--timeout", type=float, default=2.0,
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
    with _observability(args):
        return COMMANDS[args.experiment](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
