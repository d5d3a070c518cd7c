"""Load generators for the simulated beds: each is a bed builder plus a
per-call generator handed to the :mod:`repro.workloads.load` engine.

* :func:`run_loadgen` — ``concurrency`` closed-loop clients against the
  paper's four-node bed (client on n0, three-way active service on
  n1-n3).  Closed-loop load is the natural probe for round coalescing:
  the number of in-flight operations is pinned at the worker count, so
  the measured CCS-messages-per-op shows directly how many operations
  each round amortizes.
* :func:`run_loadgen_chaos` — the same through a lossy LAN and a
  mid-run replica crash and recovery, with retrying clients.
* :func:`run_loadgen_sharded` — closed-loop sessions routed over N
  sharded time domains.
* :func:`run_throughput_point` — open-loop arrivals at a fixed offered
  rate (EXT-THROUGHPUT): with serial execution every operation costs a
  CCS round, so the sustainable rate is bounded by the round time;
  coalesced rounds absorb the same rate.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Dict

from ..replication import Application
from .load import (LoadResult, ZipfPicker, closed_loop, open_loop, paper_bed,
                   service_counters)

GROUP, METHOD = "svc", "get_time"


class ThroughputApp(Application):
    """Minimal clock-reading servant."""

    WORK_S = 20e-6

    def get_time(self, ctx):
        yield ctx.compute(self.WORK_S)
        value = yield ctx.gettimeofday()
        return value.micros


def _with_service_counters(result: LoadResult, bed, **fields) -> LoadResult:
    """Complete a flat-bed closed-loop result: the latency tail and the
    service's CCS economy next to the client's view."""
    counters = service_counters(bed, GROUP)
    result.extra.update(
        **fields,
        p999_us=result.p999_us,
        latency_buckets_us=result.latency_buckets(),
        # Exactly one CCS message is transmitted per round group-wide
        # (duplicate suppression), so this is rounds / ops: ~1.0 with
        # serial execution, well below 1.0 when rounds coalesce.
        ccs_per_op=round(counters["ccs_transmitted"] / result.completed
                         if result.completed else 0.0, 4),
        **counters,
    )
    return result


def _mode_label(time_source: str = "cts", coalesce: bool = True,
                fast_path: bool = False, **_other_options) -> str:
    """What a flat-bed result is filed under, from its deploy options."""
    if time_source != "cts":
        return time_source
    base = "coalesced" if coalesce else "per-op-rounds"
    return f"{base}+fast-path" if fast_path else base


def run_loadgen(
    *,
    concurrency: int = 16,
    duration_s: float = 0.3,
    seed: int = 0,
    **deploy_options,
) -> LoadResult:
    """Run ``concurrency`` closed-loop workers for ``duration_s``
    against the service deployed with ``deploy_options`` (``time_source``,
    ``coalesce``, ``fast_path``, ``max_staleness_us``: as
    ``Testbed.deploy``)."""
    bed, client = paper_bed(seed, ThroughputApp, group=GROUP, **deploy_options)

    def call(_index):
        reply, latency_us = yield from client.timed_call(
            GROUP, METHOD, timeout=duration_s + 2.0)
        return latency_us if reply.ok else None

    result = closed_loop(
        bed, call, workers=concurrency, duration_s=duration_s,
        mode=_mode_label(**deploy_options))
    return _with_service_counters(result, bed, concurrency=concurrency,
                                  retries=0)


def run_loadgen_chaos(
    *,
    concurrency: int = 16,
    duration_s: float = 0.6,
    seed: int = 0,
    loss_rate: float = 0.02,
    max_staleness_us: int = 2_000,
) -> LoadResult:
    """Throughput under faults: lossy LAN plus a mid-run replica crash.

    One server replica is crashed a third of the way through the window
    and recovered (state transfer and all) at two thirds; the whole run
    sees ``loss_rate`` random frame loss.  Workers call through
    :meth:`~repro.rpc.client.RpcClient.retrying_call`, so the jittered
    backoff + re-invocation path — not luck — is what keeps the
    client-visible error rate bounded.  The result is filed under
    ``mode="chaos"``, next to the fault-free modes.
    """
    from ..sim.faults import FaultPlan

    bed, client = paper_bed(
        seed, ThroughputApp, group=GROUP, cluster=dict(loss_rate=loss_rate),
        max_staleness_us=max_staleness_us)
    plan = (
        FaultPlan()
        .crash("n3", at=duration_s / 3)
        .recover("n3", at=2 * duration_s / 3)
        .call(lambda: bed.redeploy("n3"), at=2 * duration_s / 3)
    )
    plan.arm(bed)

    def call(_index):
        start_us = client.node.read_clock_us()
        reply = yield from client.retrying_call(
            GROUP, METHOD, timeout=0.3, attempts=5)
        return client.node.read_clock_us() - start_us if reply.ok else None

    result = closed_loop(
        bed, call, workers=concurrency, duration_s=duration_s,
        drain_s=4.0,  # long enough for the last calls' retries
        mode="chaos")
    return _with_service_counters(result, bed, concurrency=concurrency,
                                  retries=client.stats.retries)


def run_loadgen_comparison(
    *,
    concurrency: int = 16,
    duration_s: float = 0.3,
    seed: int = 0,
    **coalesced_options,
) -> Dict[str, LoadResult]:
    """The benchmark pair: per-op rounds vs coalesced (with
    ``coalesced_options``, e.g. the fast path), identical load
    otherwise."""
    load = dict(concurrency=concurrency, duration_s=duration_s, seed=seed)
    per_op = run_loadgen(coalesce=False, **load)
    coalesced = run_loadgen(coalesce=True, **coalesced_options, **load)
    return {per_op.mode: per_op, coalesced.mode: coalesced}


def run_throughput_point(
    *,
    offered_per_s: float = 1_000.0,
    duration_s: float = 0.5,
    seed: int = 0,
    **deploy_options,
) -> LoadResult:
    """Drive an open-loop client at ``offered_per_s`` for ``duration_s``
    (``deploy_options`` as :func:`run_loadgen`).

    ``extra["saturated"]`` is set when the service could not keep up
    with the offered rate (completions fall clearly short of issues).
    """
    bed, client = paper_bed(seed, ThroughputApp, group=GROUP, **deploy_options)

    def issue(done):
        sent_at_us = client.node.read_clock_us()
        event = client.call(GROUP, METHOD, timeout=duration_s + 2.0)
        event._add_callback(lambda ev: done(
            client.node.read_clock_us() - sent_at_us if ev.ok else None))

    result = open_loop(bed, issue, rate=offered_per_s, duration_s=duration_s,
                       mode=_mode_label(**deploy_options))
    result.extra["saturated"] = (
        result.completed < 0.9 * result.extra["issued"])
    return result


def run_throughput_sweep(rates, **point_options) -> Dict[float, LoadResult]:
    """Measure a set of offered rates (options as
    :func:`run_throughput_point`)."""
    return {rate: run_throughput_point(offered_per_s=rate, **point_options)
            for rate in rates}


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
) -> LoadResult:
    """Closed-loop load against ``shards`` time domains via the router.

    Boots the :func:`~repro.shard.cluster.sharded_fleet` (one CCS ring
    per shard on a shared LAN, gradient overlay, session router), lets
    the overlay align the shard epochs for ``warmup_s``, then measures
    ``shards * concurrency`` closed-loop workers for ``duration_s``
    through the router, judged by the invariant oracle.  Workers run
    through the warm-up too — group offsets only move when rounds
    commit, so the epoch alignment needs load to happen at all.

    With ``zipf_s == 0`` every worker gets a distinct session key (the
    ring spreads them near-uniformly); with ``zipf_s > 0`` worker
    *routing identities* are drawn zipf-skewed from a fixed population,
    so hot identities pile multiple workers onto one shard and the
    per-shard split (and ``imbalance``: the hottest shard's share over
    the fair share) shows it.

    ``think_s > 0`` inserts a per-call think time (open-ish loop).  The
    default closed loop measures capacity, but at very low worker counts
    saturation makes round latency — and with it the round-commit clock
    inflation — spiky enough to leave the steady-state hop envelope;
    tests probing the machinery rather than capacity should think.
    """
    from ..chaos.runner import JudgedRun
    from ..net.daemon import TimeApp
    from ..shard import sharded_fleet

    run = JudgedRun(seed=seed, staleness_budget_us=max_staleness_us)
    bed, overlay, router = sharded_fleet(
        TimeApp, shards=shards, shard_size=shard_size, seed=seed,
        fast_path=fast_path, max_staleness_us=max_staleness_us,
        oracle=run.oracle, secret=f"loadgen-{seed}", warmup_s=warmup_s)

    clients = shards * concurrency
    if zipf_s > 0:
        picker = ZipfPicker(max(4, 4 * clients), zipf_s,
                            random.Random(seed ^ 0x5ADE))
        sessions = []
        for worker in range(clients):
            identity = picker.pick()
            session = router.session(f"client-{identity}#w{worker}")
            session.route_key = f"client-{identity}"
            sessions.append(session)
    else:
        sessions = [router.session(f"client-{worker}")
                    for worker in range(clients)]

    bed.start()
    overlay.start()

    #: Tallied calls by the shard that served them.
    per_shard: Counter = Counter()

    def served(index):
        per_shard[sessions[index].shard] += 1

    # A load generator has no verdict to report a protocol failure in:
    # it propagates.
    with run.over(bed, [bed.group_of(s) for s in range(shards)],
                  capture=False):
        result = closed_loop(
            bed,
            lambda index: router.timed_call(sessions[index],
                                            timeout=duration_s + 2.0),
            workers=clients, duration_s=duration_s, warmup_s=warmup_s,
            think_s=think_s, drain_s=2.0, mode="sharded",
            on_completed=served)

    fair_share = result.completed / len(per_shard) if per_shard else 0
    result.extra.update(
        shards=shards, shard_size=shard_size,
        concurrency_per_shard=concurrency, clients=clients,
        warmup_s=warmup_s, zipf_s=zipf_s,
        migrations=sum(s.migrations for s in router.sessions.values()),
        imbalance=round(max(per_shard.values()) / fair_share
                        if fair_share else 0.0, 3),
        per_shard={
            str(shard): {
                "completed": per_shard[shard],
                "ops_per_s": round(per_shard[shard] / duration_s
                                   if duration_s else 0.0, 1),
            }
            for shard in sorted(per_shard)
        },
        skew_envelope=overlay.skew.envelope(),
        summaries_sent=overlay.summaries_sent,
        summaries_received=overlay.summaries_received,
        oracle=run.oracle.report(),
    )
    return result

