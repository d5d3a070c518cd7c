"""Open-loop overload generation against admission-controlled gateways.

The closed-loop generator (:mod:`repro.workloads.loadgen`) cannot
overload the service: its in-flight population is pinned at the worker
count, so when the service slows down the offered rate falls with it.
Real client populations do not behave that way — arrivals keep coming
whether or not earlier requests completed.  This module drives that
regime: a Poisson arrival process at a configured rate, client
identities drawn zipf-skewed from a fixed population (a few hot
identities, a long cool tail), fired at live admission-controlled
gateways over real UDP.

What it measures is the shed-before-collapse contract:

* **goodput** — served replies per second — should track offered load
  up to capacity and *hold near capacity* beyond it;
* beyond capacity the gateway answers the excess with typed
  ``Overloaded`` + retry-after (**shed rate** rises with overload);
* the latency of *served* requests stays bounded (the admission queue
  is short by construction), instead of growing with the backlog.

:func:`run_overload_suite` packages the acceptance measurement: a
closed-loop capacity calibration, an unloaded latency baseline, then
open-loop runs at 1x/2x/4x the calibrated capacity, as one JSON-able
report (``benchmarks/test_overload.py`` gates it).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..control.admission import AdmissionConfig, is_overloaded, retry_after_of
from ..errors import RpcTimeout
from ..net.client import LiveCaller
from .load import ClockSessions, LoadResult, ZipfPicker, closed_loop, open_loop, percentile

GROUP = "timesvc"


def open_loop_point(bed, callers: Sequence[LiveCaller], *, rate_ops_s: float,
                    duration_s: float, zipf_s: float, rng,
                    deadline_s: float = 0.5) -> LoadResult:
    """Poisson arrivals at ``rate_ops_s`` for ``duration_s`` from a
    zipf-skewed client population, one identity per caller.

    Every identity is its own caller — own socket, own client group —
    so the gateway's per-client fairness and dedup windows see distinct
    clients.  Each arrival is one call with ``deadline_s`` to be
    answered, started whatever is outstanding: the defining property of
    open-loop load, and why a retry-after hint is recorded here but not
    waited out.  ``completed`` counts the served calls (``ops_per_s`` is
    the goodput); the sent, shed and timed-out tallies are in ``extra``.
    The generator shares the bed's loop with the service and yields to
    it between arrivals, so on a saturated loop it falls behind:
    ``sent`` against ``offered_rate_ops_s * duration_s``, and
    ``gen_late_p99_us``, say by how much.
    """
    sim = bed.sim
    picker = ZipfPicker(len(callers), zipf_s, rng)
    timeouts = 0
    hints_s: List[float] = []
    late_us: List[int] = []

    def gap(late_s: float) -> float:
        late_us.append(int(late_s * 1_000_000))
        return rng.expovariate(rate_ops_s)

    def one(caller: LiveCaller, done):
        nonlocal timeouts
        try:
            outcome = yield from caller.call("gettimeofday", None,
                                             timeout=deadline_s)
        except RpcTimeout:
            timeouts += 1
            return
        reply = outcome.first()
        if is_overloaded(reply):
            hints_s.append(retry_after_of(reply))
        else:
            done(outcome.latency_us if reply.ok else None)

    # Every call is answered, shed or timed out ``deadline_s`` after the
    # last arrival, so that is all the drain the ledger needs.
    result = open_loop(
        bed, lambda done: sim.process(one(callers[picker.pick()], done)),
        rate=rate_ops_s, duration_s=duration_s, drain_s=deadline_s + 0.1,
        gap=gap)
    extra = result.extra
    sent = extra.pop("issued")
    extra.update(
        offered_rate_ops_s=round(extra.pop("offered_per_s"), 1),
        identities=len(callers), zipf_s=zipf_s,
        sent=sent, served=result.completed, shed=len(hints_s),
        timeouts=timeouts,
        goodput_ops_s=round(result.ops_per_s, 1),
        shed_rate=round(len(hints_s) / sent if sent else 0.0, 4),
        mean_retry_after_s=round(
            sum(hints_s) / len(hints_s) if hints_s else 0.0, 4),
        gen_late_p99_us=percentile(late_us, 0.99),
    )
    return result


def calibrate_capacity(bed, servers, *, workers: int = 8,
                       duration_s: float = 1.5) -> float:
    """Measured closed-loop capacity, ops/s: ``workers`` callers, each
    one-in-flight, against the same gateways the open-loop run will hit.
    This is the 1x anchor for the overload factors."""
    # Rotate the server list per caller: a caller prefers the head of
    # its list, so without rotation every one would pile onto one
    # gateway and calibrate that gateway, not the cluster.
    servers = list(servers)
    rotations = [servers[pivot:] + servers[:pivot]
                 for pivot in range(len(servers))]
    callers = [
        LiveCaller(bed.sim, rotations[index % len(servers)],
                   client_id=f"cal{index}", obs=bed.obs)
        for index in range(workers)]
    try:
        result = closed_loop(bed, ClockSessions(bed.sim, callers).call,
                             workers=workers, duration_s=duration_s,
                             drain_s=0.2)
    finally:
        for caller in callers:
            caller.close()
    return result.completed / duration_s


#: The admission knobs the overload suite runs under: a short pipeline
#: and a 20 ms queue-delay budget, so overload is shed, not queued.
OVERLOAD_ADMISSION = AdmissionConfig(
    max_inflight=4, max_global_queue=32, max_client_queue=4,
    max_queue_delay_s=0.02)


def run_overload_suite(
    *,
    seed: int = 0,
    num_nodes: int = 3,
    duration_s: float = 2.0,
    identities: int = 64,
    zipf_s: float = 1.1,
    factors: Sequence[float] = (1.0, 2.0, 4.0),
    baseline_fraction: float = 0.25,
    deadline_s: float = 0.5,
    calibration_s: float = 1.5,
    admission_config: AdmissionConfig = OVERLOAD_ADMISSION,
    fast_path: bool = True,
    max_staleness_us: int = 2_000,
) -> Dict:
    """The overload acceptance measurement, end to end.

    Boots a live cluster with admission-controlled gateways, calibrates
    closed-loop capacity, records an unloaded open-loop baseline
    (``baseline_fraction`` of capacity), then drives each overload
    factor.  Returns the JSON-able report: capacity, admission
    settings, the baseline and each point's ``to_dict()``, p99 ratios.
    """
    import random

    from ..net.daemon import TimeApp
    from ..net.testbed import LiveTestbed

    node_ids = [f"n{i}" for i in range(num_nodes)]
    bed = LiveTestbed(node_ids=node_ids, seed=seed)
    callers: List[LiveCaller] = []
    try:
        bed.deploy(GROUP, TimeApp, nodes=node_ids,
                   style="active", time_source="cts",
                   fast_path=fast_path, max_staleness_us=max_staleness_us)
        bed.start()
        for node_id in node_ids:
            bed.install_gateway(node_id, admission_config)
        servers = [bed.node(node_id).address for node_id in node_ids]

        capacity = calibrate_capacity(bed, servers,
                                      duration_s=calibration_s)
        rng = random.Random(seed ^ 0x09E2)
        # Identities are sticky to a gateway: dedup and fair-queue state
        # for one client lives on one node.
        callers += [LiveCaller(bed.sim, [servers[identity % len(servers)]],
                               client_id=f"ol{identity}", obs=bed.obs)
                    for identity in range(identities)]

        def one_run(rate: float, run_s: float = duration_s) -> LoadResult:
            return open_loop_point(
                bed, callers, rate_ops_s=rate, duration_s=run_s,
                zipf_s=zipf_s, rng=rng, deadline_s=deadline_s)

        # The baseline p99 anchors the acceptance ratio, and at a
        # fraction of capacity the sample count is small — run it twice
        # as long so its tail estimate is not dominated by a handful of
        # scheduler hiccups.
        baseline = one_run(max(10.0, baseline_fraction * capacity),
                           run_s=duration_s * 2)
        points = {f"{factor:g}x": one_run(factor * capacity)
                  for factor in factors}

        suite: Dict = {
            "kind": "open-loop-overload",
            "seed": seed,
            "nodes": num_nodes,
            "capacity_ops_s": round(capacity, 1),
            "admission": {
                "max_inflight": admission_config.max_inflight,
                "max_global_queue": admission_config.max_global_queue,
                "max_client_queue": admission_config.max_client_queue,
                "max_queue_delay_s": admission_config.max_queue_delay_s,
            },
            "baseline": baseline.to_dict(),
            "points": {label: r.to_dict()
                       for label, r in points.items()},
            "admission_stats": [g.admission.stats.to_dict()
                                for g in bed.gateways],
        }
        worst = points.get(f"{max(factors):g}x")
        if worst is not None and baseline.p99_us:
            # vs the unloaded anchor: includes the latency cost of
            # *keeping the pipeline loaded* at all (queues are empty at
            # baseline_fraction of capacity by construction).
            suite["p99_ratio_vs_baseline"] = round(
                worst.p99_us / baseline.p99_us, 2)
        saturated = points.get(f"{min(factors):g}x")
        if (worst is not None and saturated is not None
                and saturated is not worst and saturated.p99_us):
            # vs the highest non-overloaded operating point: the
            # no-collapse bound — overload beyond saturation must not
            # stretch the served tail, only raise the shed rate.
            suite["p99_ratio_vs_saturation"] = round(
                worst.p99_us / saturated.p99_us, 2)
        return suite
    finally:
        for caller in callers:
            caller.close()
        bed.shutdown()
