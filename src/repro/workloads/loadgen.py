"""Closed-loop load generator: concurrent clients against the CTS.

Where :mod:`repro.workloads.throughput` drives an *open-loop* arrival
process at a fixed offered rate, this generator runs ``concurrency``
closed-loop workers: each issues one call, waits for the reply, and
immediately issues the next until the deadline.  Closed-loop load is the
natural probe for round coalescing — the number of in-flight operations
is pinned at the worker count, so the measured CCS-messages-per-op
directly shows how many operations each round amortizes.

The generator runs against any :class:`~repro.testbed.TestbedBase`-style
deployment; by default it builds the standard simulated four-node bed
(client on n0, three-way active service on n1-n3) with the minimal
clock-reading servant.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from ..sim import ClusterConfig
from ..testbed import Testbed
from .throughput import ThroughputApp


def percentile(values: List[int], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(fraction * len(ordered))))
    return float(ordered[rank])


#: Upper bounds (microseconds) of the recorded latency histogram —
#: matches the ``cts_round_latency_us`` instrument, so benchmark runs
#: and live scrapes bucket identically.
LATENCY_BUCKETS_US = (50, 100, 200, 400, 800, 1_600, 3_200, 6_400,
                      12_800, 25_600, 51_200)


@dataclass
class LoadgenResult:
    """One closed-loop measurement with service-side counters."""

    mode: str
    concurrency: int
    duration_s: float
    completed: int = 0
    errors: int = 0
    #: Re-invocations issued by the retry path (chaos mode).
    retries: int = 0
    #: Client-observed end-to-end latencies, microseconds.
    latencies_us: List[int] = field(default_factory=list)
    #: Service-side counters, summed over the replicas.
    ops_completed: int = 0
    ops_coalesced: int = 0
    fast_path_hits: int = 0
    fast_path_fallbacks: int = 0
    ccs_transmitted: int = 0
    rounds_completed: int = 0

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    @property
    def p50_us(self) -> float:
        return percentile(self.latencies_us, 0.50)

    @property
    def p99_us(self) -> float:
        return percentile(self.latencies_us, 0.99)

    @property
    def p999_us(self) -> float:
        return percentile(self.latencies_us, 0.999)

    def latency_buckets(self) -> List[List]:
        """Cumulative latency histogram: ``[[le_us, count], ...]`` ending
        with ``["+Inf", total]`` (Prometheus-shaped, JSON-able)."""
        ordered = sorted(self.latencies_us)
        buckets: List[List] = []
        index = 0
        for bound in LATENCY_BUCKETS_US:
            while index < len(ordered) and ordered[index] <= bound:
                index += 1
            buckets.append([bound, index])
        buckets.append(["+Inf", len(ordered)])
        return buckets

    @property
    def ccs_per_op(self) -> float:
        """Total CCS messages on the wire per completed client call.

        Exactly one CCS message is transmitted per round group-wide
        (duplicate suppression), so this is rounds / ops: ~1.0 in
        per-operation mode, well below 1.0 when rounds coalesce.
        """
        return self.ccs_transmitted / self.completed if self.completed else 0.0

    def to_dict(self) -> Dict:
        return {
            "mode": self.mode,
            "concurrency": self.concurrency,
            "duration_s": self.duration_s,
            "completed": self.completed,
            "errors": self.errors,
            "retries": self.retries,
            "ops_per_s": round(self.ops_per_s, 1),
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "p999_us": self.p999_us,
            "latency_buckets_us": self.latency_buckets(),
            "ccs_per_op": round(self.ccs_per_op, 4),
            "ccs_transmitted": self.ccs_transmitted,
            "rounds_completed": self.rounds_completed,
            "ops_completed": self.ops_completed,
            "ops_coalesced": self.ops_coalesced,
            "fast_path_hits": self.fast_path_hits,
            "fast_path_fallbacks": self.fast_path_fallbacks,
        }


@dataclass
class LoadgenShardResult:
    """One closed-loop measurement against a sharded deployment."""

    shards: int
    shard_size: int
    #: Closed-loop workers *per shard* (the population is
    #: ``shards * concurrency`` workers spread by the routing ring).
    concurrency: int
    duration_s: float
    warmup_s: float
    zipf_s: float
    clients: int = 0
    completed: int = 0
    errors: int = 0
    migrations: int = 0
    latencies_us: List[int] = field(default_factory=list)
    #: Completed calls served by each shard (keyed by shard id).
    per_shard_completed: Dict[int, int] = field(default_factory=dict)
    #: The overlay's post-warmup skew envelope (see SkewTracker).
    skew_envelope: Dict = field(default_factory=dict)
    summaries_sent: int = 0
    summaries_received: int = 0
    oracle_report: Optional[Dict] = None

    @property
    def ops_per_s(self) -> float:
        return self.completed / self.duration_s if self.duration_s else 0.0

    @property
    def p50_us(self) -> float:
        return percentile(self.latencies_us, 0.50)

    @property
    def p99_us(self) -> float:
        return percentile(self.latencies_us, 0.99)

    def per_shard_ops_per_s(self) -> Dict[int, float]:
        if not self.duration_s:
            return {shard: 0.0 for shard in self.per_shard_completed}
        return {shard: completed / self.duration_s
                for shard, completed in self.per_shard_completed.items()}

    @property
    def imbalance(self) -> float:
        """Hottest shard's share of completed calls over the fair share
        (1.0 = perfectly balanced; rises with the zipf exponent)."""
        if not self.completed or not self.per_shard_completed:
            return 0.0
        fair = self.completed / len(self.per_shard_completed)
        return max(self.per_shard_completed.values()) / fair

    def to_dict(self) -> Dict:
        ops = self.per_shard_ops_per_s()
        return {
            "mode": "sharded",
            "shards": self.shards,
            "shard_size": self.shard_size,
            "concurrency_per_shard": self.concurrency,
            "clients": self.clients,
            "duration_s": self.duration_s,
            "warmup_s": self.warmup_s,
            "zipf_s": self.zipf_s,
            "completed": self.completed,
            "errors": self.errors,
            "migrations": self.migrations,
            "ops_per_s": round(self.ops_per_s, 1),
            "p50_us": self.p50_us,
            "p99_us": self.p99_us,
            "imbalance": round(self.imbalance, 3),
            "per_shard": {
                str(shard): {
                    "completed": self.per_shard_completed.get(shard, 0),
                    "ops_per_s": round(ops.get(shard, 0.0), 1),
                }
                for shard in sorted(self.per_shard_completed)
            },
            "skew_envelope": dict(self.skew_envelope),
            "summaries_sent": self.summaries_sent,
            "summaries_received": self.summaries_received,
            "oracle": self.oracle_report,
        }


def zipf_identities(count: int, *, universe: int, s: float,
                    rng) -> List[int]:
    """Draw ``count`` client identities from a zipf(``s``) popularity
    distribution over ``universe`` ranks (pure python — the bench path
    must not depend on numpy).  ``s == 0`` degenerates to uniform."""
    weights: List[float] = []
    total = 0.0
    for rank in range(1, universe + 1):
        weight = 1.0 / (rank ** s) if s else 1.0
        total += weight
        weights.append(total)  # cumulative
    identities = []
    for _ in range(count):
        point = rng.random() * total
        low, high = 0, universe - 1
        while low < high:
            mid = (low + high) // 2
            if weights[mid] < point:
                low = mid + 1
            else:
                high = mid
        identities.append(low)
    return identities


def run_loadgen_sharded(
    *,
    shards: int = 4,
    shard_size: int = 3,
    concurrency: int = 8,
    duration_s: float = 0.5,
    warmup_s: float = 1.25,
    seed: int = 0,
    zipf_s: float = 0.0,
    think_s: float = 0.0,
    fast_path: bool = True,
    max_staleness_us: int = 2_000,
    with_oracle: bool = True,
) -> LoadgenShardResult:
    """Closed-loop load against ``shards`` time domains via the router.

    Boots a :class:`~repro.shard.cluster.ShardedTestbed` (one CCS ring
    per shard on a shared LAN), starts the gradient overlay, lets it
    align the shard epochs for ``warmup_s``, then runs
    ``shards * concurrency`` closed-loop workers for ``duration_s``
    through a :class:`~repro.shard.router.ShardRouter`.

    With ``zipf_s == 0`` every worker gets a distinct session key (the
    ring spreads them near-uniformly); with ``zipf_s > 0`` worker
    *routing identities* are drawn zipf-skewed from a fixed population,
    so hot identities pile multiple workers onto one shard and the
    per-shard ops split in the result shows the imbalance.

    ``think_s > 0`` inserts a per-call think time (open-ish loop).  The
    default closed loop measures capacity, but at very low worker counts
    saturation makes round latency — and with it the round-commit clock
    inflation — spiky enough to leave the steady-state hop envelope;
    tests probing the machinery rather than capacity should think.
    """
    import random

    from ..net.daemon import TimeApp
    from ..shard import (
        GradientOverlay,
        OverlayConfig,
        ShardedTestbed,
        ShardRouter,
        ShardSession,
    )

    bed = ShardedTestbed(shards=shards, shard_size=shard_size, seed=seed)
    bed.deploy_shards(TimeApp, fast_path=fast_path,
                      max_staleness_us=max_staleness_us)
    overlay_config = OverlayConfig(
        secret=f"loadgen-{seed}", warmup_s=warmup_s)
    oracle = None
    if with_oracle:
        from ..chaos.oracle import InvariantOracle
        oracle = InvariantOracle(staleness_budget_us=max_staleness_us)
    overlay = GradientOverlay(bed, overlay_config, oracle=oracle)
    router = ShardRouter(
        bed, oracle=oracle,
        oracle_gate=lambda: overlay.skew.warmed_up,
        rate_slack_us=overlay_config.hop_bound_us)

    result = LoadgenShardResult(
        shards=shards, shard_size=shard_size, concurrency=concurrency,
        duration_s=duration_s, warmup_s=warmup_s, zipf_s=zipf_s,
        clients=shards * concurrency)

    rng = random.Random(seed ^ 0x5ADE)
    sessions: List[ShardSession] = []
    if zipf_s > 0:
        population = zipf_identities(
            result.clients, universe=max(4, 4 * result.clients),
            s=zipf_s, rng=rng)
        for worker, identity in enumerate(population):
            session = router.session(f"client-{identity}#w{worker}")
            session.route_key = f"client-{identity}"
            sessions.append(session)
    else:
        for worker in range(result.clients):
            sessions.append(router.session(f"client-{worker}"))

    bed.start()
    overlay.start()
    if oracle is not None:
        oracle.attach()

    # Workers run through the warmup too — group offsets only move when
    # rounds commit, so the epoch alignment needs load to happen at all.
    # Only calls issued after the warmup boundary are tallied.
    measure_start = bed.sim.now + warmup_s
    deadline = measure_start + duration_s

    def worker(session: ShardSession):
        from ..errors import RpcTimeout

        while bed.sim.now < deadline:
            start_s = bed.sim.now
            try:
                yield from router.call(session, timeout=duration_s + 2.0)
            except RpcTimeout:
                if start_s >= measure_start:
                    result.errors += 1
                continue
            if start_s >= measure_start:
                result.completed += 1
                result.latencies_us.append(
                    int((bed.sim.now - start_s) * 1e6))
                shard = session.shard
                result.per_shard_completed[shard] = (
                    result.per_shard_completed.get(shard, 0) + 1)
            if think_s > 0:
                yield bed.sim.timeout(think_s)
        return None

    workers = [
        bed.sim.process(worker(session), name=f"loadgen-shard-{index}")
        for index, session in enumerate(sessions)
    ]
    bed.run(warmup_s + duration_s + 2.0)  # run past the deadline to drain
    for proc in workers:
        if proc.triggered and not proc.ok:
            proc._fail_silently = True
            raise proc.value

    if oracle is not None:
        oracle.detach()
        oracle.finish(bed,
                      groups=[bed.group_of(s) for s in range(shards)])
        result.oracle_report = oracle.report()
    result.migrations = sum(s.migrations for s in router.sessions.values())
    result.skew_envelope = overlay.skew.envelope()
    result.summaries_sent = overlay.summaries_sent
    result.summaries_received = overlay.summaries_received
    return result


def record_shard_benchmark(path, single: LoadgenShardResult,
                           sharded: LoadgenShardResult) -> Dict:
    """Append one shard-scaling measurement to the benchmark trajectory.

    Same document as :func:`record_benchmark` (the runs list in
    ``BENCH_throughput.json``); a sharded run carries the single-shard
    baseline, the aggregate scaling ratio, and the measured inter-shard
    skew envelope.
    """
    path = Path(path)
    doc: Dict = {"benchmark": "loadgen-throughput", "runs": []}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing, dict) and isinstance(
                    existing.get("runs"), list):
                doc = existing
        except ValueError:
            pass
    run: Dict = {
        "recorded_at": datetime.date.today().isoformat(),
        "kind": "shard-scaling",
        "modes": {
            "single-shard": single.to_dict(),
            "sharded": sharded.to_dict(),
        },
        "skew_envelope": dict(sharded.skew_envelope),
    }
    if single.ops_per_s:
        run["scaling_vs_single_shard"] = round(
            sharded.ops_per_s / single.ops_per_s, 2)
    doc["runs"].append(run)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def _mode_label(time_source: str, coalesce: bool, fast_path: bool) -> str:
    if time_source != "cts":
        return time_source
    base = "coalesced" if coalesce else "per-op-rounds"
    return f"{base}+fast-path" if fast_path else base


def run_loadgen(
    *,
    concurrency: int = 16,
    duration_s: float = 0.3,
    time_source: str = "cts",
    coalesce: bool = True,
    fast_path: bool = False,
    max_staleness_us: int = 2_000,
    seed: int = 0,
    bed: Optional[Testbed] = None,
    group: str = "svc",
    method: str = "get_time",
    client_node: str = "n0",
    server_nodes=("n1", "n2", "n3"),
) -> LoadgenResult:
    """Run ``concurrency`` closed-loop workers for ``duration_s``.

    Pass a pre-built ``bed`` with ``group`` already deployed to measure a
    custom deployment; otherwise the standard simulated bed is built from
    the remaining keyword arguments.
    """
    if bed is None:
        bed = Testbed(seed=seed, cluster_config=ClusterConfig(num_nodes=4))
        bed.deploy(
            group, ThroughputApp, list(server_nodes),
            time_source=time_source, coalesce=coalesce, fast_path=fast_path,
            max_staleness_us=max_staleness_us,
        )
    client = bed.client(client_node)
    bed.start()

    result = LoadgenResult(
        mode=_mode_label(time_source, coalesce, fast_path),
        concurrency=concurrency,
        duration_s=duration_s,
    )
    deadline = bed.sim.now + duration_s

    def worker():
        while bed.sim.now < deadline:
            start_us = client.node.read_clock_us()
            reply = yield client.call(group, method, timeout=duration_s + 2.0)
            if reply.ok:
                result.completed += 1
                result.latencies_us.append(
                    client.node.read_clock_us() - start_us)
            else:
                result.errors += 1
        return None

    workers = [
        bed.sim.process(worker(), name=f"loadgen-{i}")
        for i in range(concurrency)
    ]
    bed.run(duration_s + 2.5)  # run past the deadline to drain
    for proc in workers:
        if proc.triggered and not proc.ok:
            proc._fail_silently = True
            raise proc.value

    for replica in bed.replicas(group).values():
        stats = getattr(replica.time_source, "stats", None)
        if stats is None:
            continue
        result.ops_completed += getattr(stats, "ops_completed", 0)
        result.ops_coalesced += getattr(stats, "ops_coalesced", 0)
        result.fast_path_hits += getattr(stats, "fast_path_hits", 0)
        result.fast_path_fallbacks += getattr(stats, "fast_path_fallbacks", 0)
        result.ccs_transmitted += getattr(stats, "ccs_transmitted", 0)
        result.rounds_completed += getattr(stats, "rounds_completed", 0)
    # rounds_completed counts once per replica; report the group view.
    replica_count = len(bed.replicas(group)) or 1
    result.rounds_completed //= replica_count
    return result


def run_loadgen_chaos(
    *,
    concurrency: int = 16,
    duration_s: float = 0.6,
    seed: int = 0,
    loss_rate: float = 0.02,
    max_staleness_us: int = 2_000,
) -> LoadgenResult:
    """Throughput under faults: lossy LAN plus a mid-run replica crash.

    One server replica is crashed a third of the way through the window
    and recovered (state transfer and all) at two thirds; the whole run
    sees ``loss_rate`` random frame loss.  Workers call through
    :meth:`~repro.rpc.client.RpcClient.retrying_call`, so the jittered
    backoff + re-invocation path — not luck — is what keeps the
    client-visible error rate bounded.  The result lands in the same
    benchmark trajectory as the fault-free modes (``mode="chaos"``).
    """
    from ..sim.faults import FaultPlan

    bed = Testbed(seed=seed, cluster_config=ClusterConfig(
        num_nodes=4, loss_rate=loss_rate))
    group, method = "svc", "get_time"
    bed.deploy(group, ThroughputApp, ["n1", "n2", "n3"],
               time_source="cts", coalesce=True,
               max_staleness_us=max_staleness_us)
    client = bed.client("n0")
    bed.start()

    result = LoadgenResult(
        mode="chaos",
        concurrency=concurrency,
        duration_s=duration_s,
    )
    plan = (
        FaultPlan()
        .crash("n3", at=duration_s / 3)
        .recover("n3", at=2 * duration_s / 3)
        .call(lambda: bed.add_replica(group, "n3", ThroughputApp,
                                      time_source="cts", coalesce=True,
                                      max_staleness_us=max_staleness_us),
              at=2 * duration_s / 3)
    )
    plan.arm(bed)
    deadline = bed.sim.now + duration_s

    def worker():
        while bed.sim.now < deadline:
            start_us = client.node.read_clock_us()
            try:
                reply = yield from client.retrying_call(
                    group, method, timeout=0.3, attempts=5)
            except Exception:
                result.errors += 1
                continue
            if reply.ok:
                result.completed += 1
                result.latencies_us.append(
                    client.node.read_clock_us() - start_us)
            else:
                result.errors += 1
        return None

    workers = [
        bed.sim.process(worker(), name=f"loadgen-chaos-{i}")
        for i in range(concurrency)
    ]
    bed.run(duration_s + 4.0)  # run past the deadline to drain retries
    for proc in workers:
        if proc.triggered and not proc.ok:
            proc._fail_silently = True
            raise proc.value
    result.retries = client.stats.retries

    for replica in bed.replicas(group).values():
        stats = getattr(replica.time_source, "stats", None)
        if stats is None:
            continue
        result.ops_completed += getattr(stats, "ops_completed", 0)
        result.ops_coalesced += getattr(stats, "ops_coalesced", 0)
        result.fast_path_hits += getattr(stats, "fast_path_hits", 0)
        result.fast_path_fallbacks += getattr(stats, "fast_path_fallbacks", 0)
        result.ccs_transmitted += getattr(stats, "ccs_transmitted", 0)
        result.rounds_completed += getattr(stats, "rounds_completed", 0)
    replica_count = len(bed.replicas(group)) or 1
    result.rounds_completed //= replica_count
    return result


def run_loadgen_comparison(
    *,
    concurrency: int = 16,
    duration_s: float = 0.3,
    seed: int = 0,
    fast_path: bool = False,
    max_staleness_us: int = 2_000,
) -> Dict[str, LoadgenResult]:
    """The benchmark pair: per-op rounds vs coalesced (optionally with
    the fast path), identical load otherwise."""
    per_op = run_loadgen(
        concurrency=concurrency, duration_s=duration_s, seed=seed,
        coalesce=False,
    )
    coalesced = run_loadgen(
        concurrency=concurrency, duration_s=duration_s, seed=seed,
        coalesce=True, fast_path=fast_path,
        max_staleness_us=max_staleness_us,
    )
    return {per_op.mode: per_op, coalesced.mode: coalesced}


def record_benchmark(path, results: Dict[str, LoadgenResult]) -> Dict:
    """Append one comparison to the persisted benchmark trajectory.

    ``path`` holds a JSON document ``{"benchmark": ..., "runs": [...]}``;
    each call appends one run (per-mode numbers plus the coalesced-mode
    speedup over per-op rounds), so the file accumulates a trajectory of
    the service's throughput across changes.  A missing or malformed
    file is replaced with a fresh document.
    """
    path = Path(path)
    doc: Dict = {"benchmark": "loadgen-throughput", "runs": []}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
            if isinstance(existing, dict) and isinstance(
                    existing.get("runs"), list):
                doc = existing
        except ValueError:
            pass
    run: Dict = {
        "recorded_at": datetime.date.today().isoformat(),
        "modes": {mode: r.to_dict() for mode, r in sorted(results.items())},
    }
    per_op = results.get("per-op-rounds")
    coalesced = (results.get("coalesced+fast-path")
                 or results.get("coalesced"))
    if per_op is not None and coalesced is not None and per_op.ops_per_s:
        run["speedup_vs_per_op"] = round(
            coalesced.ops_per_s / per_op.ops_per_s, 2)
    doc["runs"].append(run)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc
