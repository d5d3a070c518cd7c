"""Per-layer metrics: what the traced pass reports.

Counts come from the layers' public stats objects over the traced
trial's loaded window, ``*.self_share`` from its spans, the codec, MAC
and kernel figures from the microbenchmarks.  Simulated-time figures and
event counts are the same with and without tracing (the simulation is
deterministic); wall-clock figures that tracing would inflate are taken
from the untraced trial of the same seed and size.
"""

from __future__ import annotations

from typing import Dict

from .spec import LAYERS, PER_LAYER, Workload
from .tracing import Tracer
from .trial import Trial


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(workload: Workload, traced: Trial, untraced: Trial,
                      tracer: Tracer, micro: Dict[str, float]
                      ) -> Dict[str, float]:
    c = traced.counters
    ops = c["window.served"]
    spans = tracer.counts()
    self_ns = tracer.layer_self_ns()
    wall_ns = c["window.wall_s"] * 1e9
    out = {metric.name: 0.0 for metric in PER_LAYER}
    out.update(micro)
    for layer in LAYERS:
        out[f"{layer}.self_share"] = _ratio(self_ns.get(layer, 0), wall_ns)

    if workload.is_sim:
        events = spans.get("sim.kernel/step", 0)
        out["sim.kernel.events_per_op"] = _ratio(events, ops)
        out["sim.kernel.events_per_wall_s"] = _ratio(
            events, untraced.counters["window.wall_s"])
        out["sim.kernel.timeouts_per_op"] = _ratio(
            spans.get("sim.kernel/timeout", 0), ops)
        out["sim.network.frames_per_op"] = _ratio(c["net.frames"], ops)
        out["sim.network.bytes_per_op"] = _ratio(c["net.bytes"], ops)
        out["sim.network.frames_dropped"] = c["sim.network.frames_dropped"]
        out["rpc.retries"] = c["rpc.retries"]
        out["rpc.timeouts"] = c["rpc.timeouts"]
    else:
        out["net.kernel.events_per_op"] = _ratio(
            spans.get("net.kernel/fire", 0), ops)
        out["net.kernel.idle_cpu_share"] = c["idle.cpu_share"]
        out["net.udp.datagrams_per_op"] = _ratio(c["net.frames"], ops)
        out["net.udp.bytes_per_op"] = _ratio(c["net.bytes"], ops)
        out["net.udp.frames_rejected"] = c["net.udp.frames_rejected"]
        out["net.auth.rejected"] = c["net.auth.rejected"]
        arrived = (c["net.daemon.requests_injected"]
                   + c["net.daemon.requests_deduplicated"]
                   + c["control.admission.shed"])
        out["net.daemon.requests_injected"] = c["net.daemon.requests_injected"]
        out["net.daemon.dedup_share"] = _ratio(
            c["net.daemon.requests_deduplicated"], arrived)
        out["net.daemon.replies_forwarded_per_op"] = _ratio(
            c["net.daemon.replies_forwarded"], ops)
        out["control.admission.shed_share"] = _ratio(
            c["control.admission.shed"], arrived)
        out["control.admission.queued_share"] = _ratio(
            c["control.admission.queued"], arrived)
        out["bench.gen_late_p99_us"] = untraced.counters["bench.gen_late_p99_us"]

    out["totem.tokens_per_op"] = _ratio(c["totem.tokens"], ops)
    out["totem.msgs_per_op"] = _ratio(c["totem.msgs"], ops)
    for name in ("retransmissions", "token_retransmissions",
                 "membership_changes", "sends_cancelled", "token_hop_us"):
        out[f"totem.{name}"] = c[f"totem.{name}"]
    out["totem.idle_tokens_per_s"] = c["idle.tokens_per_s"]
    out["totem.outage_us"] = untraced.metrics.get("outage_us", 0.0)
    out["replication.requests_per_op"] = _ratio(c["replication.requests"], ops)
    out["replication.replies_per_op"] = _ratio(c["replication.replies"], ops)
    out["replication.checkpoints_applied"] = c["replication.checkpoints_applied"]
    out["replication.recovery_us"] = untraced.metrics.get("recovery_us", 0.0)

    transmitted = c["core.ccs_sent"] - c["core.ccs_suppressed"]
    out["core.ccs_per_op"] = _ratio(transmitted, ops)
    out["core.ops_per_round"] = _ratio(ops, c["core.rounds"])
    out["core.fast_path_hit_share"] = _ratio(
        c["core.fast_path_hits"], c["core.ops_completed"])
    out["core.fast_path_fallbacks"] = c["core.fast_path_fallbacks"]
    out["core.ccs_suppressed_share"] = _ratio(
        c["core.ccs_suppressed"], c["core.ccs_sent"])
    out["core.duplicates_discarded"] = c["core.duplicates_discarded"]

    # A fixed-rate live open loop takes the same wall time per op however
    # slow the code is, so there the overhead is read off the latency.
    key = ("p50_us" if workload.loop == "open" and not workload.is_sim
           else "wall_ms_per_op")
    out["bench.tracing_overhead_share"] = _ratio(
        traced.metrics[key], untraced.metrics[key]) - 1.0
    out["bench.p99_us"] = untraced.metrics["p99_us"]
    return out
