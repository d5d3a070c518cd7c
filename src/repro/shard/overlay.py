"""The gradient cross-shard sync overlay.

Every ``period_s`` each shard's primary builds a signed
:class:`ShardSummary` and unicasts it to the shard's ring neighbors.  A
receiving shard compares the advertised group clock to its own estimate
and hands the positive remainder (minus the sender's error bound) to its
:class:`~repro.core.drift.GradientSteering` hook, which folds a bounded
step into the group's next CCS proposal.  Shards thus chase the fastest
group clock along ring edges — the gradient-clock idiom — and the skew
between *neighbors* stays inside a small per-hop envelope instead of
the global worst case.

Steady-state per-hop envelope (see docs/sharding.md for the derivation):
with summary period ``T``, relative drift ``rho`` between neighbor
groups, sender error bound ``eps`` and steering proportion ``p``
(step cap ``S``), a hop's skew contracts whenever it exceeds

    g*  =  (rho * T + eps) / p        (given S >= p * g*)

so after warmup the observed hop skew stays within ``g*`` plus the
drift accumulated over one period — the bound the
:class:`~repro.chaos.oracle.InvariantOracle` checks online via
``observe_shard_summary``.  A hop that was silent for a few periods
(partition, dead primary) or whose primary failed over (the estimate is
re-based mid-stream) enters a *resync* drain window: its deliveries are
steered (and, above the align threshold, jumped) but not judged against
the bound until the delta re-enters it — or ``RESYNC_DRAIN_S`` passes,
so real divergence is still flagged.

:class:`SkewTracker` samples every shard's live estimate each period and
keeps the post-warmup envelope — the number
``benchmarks/test_shard_scaling.py`` reports and gates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import ClassVar, Dict, Optional, Tuple

from .. import obs
from ..errors import RpcTimeout
from .summary import ShardSummary

__all__ = ["OverlayConfig", "GradientOverlay", "SkewTracker"]

#: GradientOverlay tally -> the registry family read from it, keyed by
#: the sending shard, the receiving shard and the receiving node.
COUNTERS = obs.REGISTRY.read_counters({
    "sent": ("shard_summaries_sent_total",
             "clock summaries sent to ring neighbors", "shard"),
    "received": ("shard_summaries_received_total",
                 "clock summaries accepted from neighbors", "shard"),
    "rejected": ("shard_summaries_rejected_total",
                 "summaries dropped (bad signature)", "node"),
})
M_SHARD_SKEW = obs.REGISTRY.gauge(
    "shard_skew_us", "current global inter-shard skew (max - min estimate)",
    unit="us")
M_SHARD_SKEW_PEAK = obs.REGISTRY.gauge(
    "shard_skew_peak_us", "worst post-warmup inter-shard skew observed",
    unit="us")
M_HOP_SKEW_PEAK = obs.REGISTRY.gauge(
    "shard_hop_skew_peak_us", "worst post-warmup ring-neighbor skew observed",
    unit="us")


@dataclass
class OverlayConfig:
    """Tuning knobs for the gradient overlay; the two in capitals are fixed."""

    #: Summary period T, seconds.
    period_s: float = 0.02
    #: Shared HMAC secret for summaries (None = unsigned/open mode).
    secret: Optional[str] = None
    #: Envelope measurement starts after this settle window, seconds
    #: (initial epochs sit seconds apart; alignment happens in here).
    warmup_s: float = 1.0
    #: Per-hop skew bound the oracle enforces, microseconds.  Under
    #: saturation the dominant "drift" term is not oscillator ppm but
    #: round-commit inflation: every committed round advances the group
    #: offset by roughly the round latency, so a busier (or slower-ring)
    #: shard's clock runs up to ~1% fast relative to a neighbor.  With
    #: rho_eff ≈ 10_000 ppm, T = 20 ms, eps = 100 us and p = 0.5 the
    #: contraction point g* = (rho_eff*T + eps)/p lands near 600 us
    #: (needs step cap S >= p*g*, hence the testbed's 2 ms cap); the
    #: bound adds headroom for round-cadence lag — corrections only
    #: apply when rounds commit.
    hop_bound_us: int = 5_000
    #: A hop silent longer than this many periods is resyncing: its next
    #: delivery is steered but not judged against the bound.
    RESYNC_AFTER_PERIODS: ClassVar[float] = 3.0
    #: How long a resyncing hop may keep draining its backlog before the
    #: oracle judges it again.  A silence or a primary failover re-bases
    #: one side of the edge; deliveries stay exempt until the delta
    #: re-enters the bound — or this deadline passes, so a genuinely
    #: diverging overlay is still caught.
    RESYNC_DRAIN_S: ClassVar[float] = 1.0


class SkewTracker:
    """Samples shard estimates and keeps the post-warmup skew envelope."""

    def __init__(self, bed, *, warmup_s: float):
        self.bed = bed
        self.warmup_s = warmup_s
        self._t0: Optional[float] = None
        self.samples = 0
        self.max_skew_us = 0
        self.max_hop_skew_us = 0

    def start(self) -> None:
        self._t0 = self.bed.sim.now

    @property
    def warmed_up(self) -> bool:
        return (self._t0 is not None
                and self.bed.sim.now - self._t0 >= self.warmup_s)

    def sample(self) -> None:
        """One synchronized reading of every live shard's estimate."""
        estimates: Dict[int, int] = {}
        for shard in self.bed.ring.members:
            value = self.bed.estimate_group_us(shard)
            if value is not None:
                estimates[shard] = value
        if len(estimates) < 2 or not self.warmed_up:
            return
        self.samples += 1
        skew = max(estimates.values()) - min(estimates.values())
        self.max_skew_us = max(self.max_skew_us, skew)
        hop = 0
        for shard, value in estimates.items():
            for neighbor in self.bed.ring.neighbors(shard):
                if neighbor in estimates:
                    hop = max(hop, abs(value - estimates[neighbor]))
        self.max_hop_skew_us = max(self.max_hop_skew_us, hop)
        if obs.REGISTRY.enabled:
            M_SHARD_SKEW.set(skew)
            M_SHARD_SKEW_PEAK.set_max(skew)
            M_HOP_SKEW_PEAK.set_max(hop)

    def envelope(self) -> Dict[str, float]:
        """The measured envelope, for bench JSON and chaos verdicts."""
        return {
            "samples": self.samples,
            "warmup_s": self.warmup_s,
            "max_skew_us": self.max_skew_us,
            "max_hop_skew_us": self.max_hop_skew_us,
        }


class GradientOverlay:
    """Drives the summary exchange over a :class:`ShardedTestbed`."""

    def __init__(self, bed, config: Optional[OverlayConfig] = None,
                 *, oracle=None):
        self.bed = bed
        self.config = config or OverlayConfig()
        self.oracle = oracle
        self.skew = SkewTracker(bed, warmup_s=self.config.warmup_s)
        #: (src shard, dst shard) -> kernel time of the last delivery.
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        #: shard -> (kernel time, estimate) at the last re-base check.
        self._tracked: Dict[int, Optional[Tuple[float, int]]] = {}
        #: (src shard, dst shard) -> drain deadline while resyncing.
        self._draining: Dict[Tuple[int, int], float] = {}
        #: shard -> round watermark at the last tick (idle detection).
        self._last_round_seq: Dict[int, int] = {}
        #: Shards with a sync probe in flight.
        self._probing: set = set()
        self._probe_clients: Dict[int, object] = {}
        self.probes_sent = 0
        self.sent: Dict[int, int] = Counter()
        self.received: Dict[int, int] = Counter()
        self.rejected: Dict[str, int] = Counter()
        obs.REGISTRY.watch(self, COUNTERS)
        self._started = False
        bed.summary_sink = self._on_summary

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Begin periodic ticks, staggered so shards do not send in
        lockstep (each shard's phase is a fixed fraction of the period)."""
        if self._started:
            return
        self._started = True
        self.skew.start()
        period = self.config.period_s
        shards = list(self.bed.ring.members)
        for index, shard in enumerate(shards):
            phase = period * (index + 1) / (len(shards) + 1)
            self.bed.sim.schedule(phase, self._tick, shard)
        self.bed.sim.schedule(period, self._sample_tick)

    def _tick(self, shard: int) -> None:
        if shard in self.bed.ring:
            summary = self.bed.build_summary(shard, self.config.secret)
            if summary is not None:
                for neighbor in self.bed.ring.neighbors(shard):
                    if self.bed.send_summary(shard, neighbor, summary):
                        self.sent[shard] += 1
                self._maybe_probe(shard, summary.round_seq)
        self.bed.sim.schedule(self.config.period_s, self._tick, shard)

    def _maybe_probe(self, shard: int, round_seq: int) -> None:
        """Steering needs rounds: a correction only commits inside a CCS
        proposal, so a shard with pending correction but no client
        traffic would hold its backlog forever.  When the round
        watermark sat still for a whole period and the shard has pending
        steering, drive one probe read through the shard's own client —
        the resulting round carries the step group-wide.  Under load the
        watermark always moves, so probes cost nothing there."""
        previous = self._last_round_seq.get(shard)
        self._last_round_seq[shard] = round_seq
        steering = self.bed.steerings.get(shard)
        if (steering is None or steering.pending_us <= 0
                or previous != round_seq or shard in self._probing):
            return
        self._probing.add(shard)
        self.bed.sim.process(self._probe(shard), name=f"overlay-probe{shard}")

    def _probe(self, shard: int):
        client = self._probe_clients.get(shard)
        if client is None:
            client = self._probe_clients[shard] = self.bed.shard_client(shard)
        self.probes_sent += 1
        try:
            yield client.call(self.bed.group_of(shard), "gettimeofday", None,
                              timeout=self.config.period_s * 10)
        except RpcTimeout:
            pass  # partitioned or reforming; the next idle tick retries
        finally:
            self._probing.discard(shard)

    def _sample_tick(self) -> None:
        now = self.bed.sim.now
        for shard in self.bed.ring.members:
            self._check_rebase(shard, now)
        self.skew.sample()
        self.bed.sim.schedule(self.config.period_s, self._sample_tick)

    # -- receive path ---------------------------------------------------

    def _on_summary(self, node_id: str, summary: ShardSummary) -> None:
        if not summary.verify(self.config.secret):
            self.rejected[node_id] += 1
            return
        dst_shard = self.bed.shard_of_node(node_id)
        if dst_shard == summary.shard or dst_shard not in self.bed.ring:
            return
        local_us = self.bed.estimate_group_us(dst_shard)
        if local_us is None:
            return  # no committed round yet; nothing to steer
        self.received[dst_shard] += 1
        delta_us = summary.value_us - local_us
        steering = self.bed.steerings.get(dst_shard)
        if steering is not None and delta_us > summary.error_us:
            # Only the certain part of the lead: the advertised value may
            # overstate the sender's clock by up to its error bound.
            steering.observe_neighbor_delta(delta_us - summary.error_us)
        now = self.bed.sim.now
        self._check_rebase(summary.shard, now)
        self._check_rebase(dst_shard, now)
        key = (summary.shard, dst_shard)
        last = self._last_delivery.get(key)
        self._last_delivery[key] = now
        if self.oracle is None or not self.skew.warmed_up:
            return
        grace = self.config.RESYNC_AFTER_PERIODS * self.config.period_s
        if last is None or (now - last) > grace:
            self._draining[key] = now + self.config.RESYNC_DRAIN_S
        resync = False
        deadline = self._draining.get(key)
        if deadline is not None:
            # A re-based hop (silence or failover) is exempt while its
            # backlog drains; once the delta is back inside the bound —
            # or the drain deadline passes — judgments resume.
            within = abs(delta_us) <= (self.config.hop_bound_us
                                       + summary.error_us)
            if within or now > deadline:
                del self._draining[key]
            resync = not within and now <= deadline
        self.oracle.observe_shard_summary(
            summary.shard, dst_shard, delta_us,
            bound_us=self.config.hop_bound_us,
            error_us=summary.error_us, resync=resync)

    def _check_rebase(self, shard: int, now: float) -> None:
        """A crash, failover or ring reformation can step a shard's group
        estimate — the base of every summary and delta it touches — by
        far more than a steering step, without any delivery silence on
        its edges.  Compare the estimate against dead reckoning from the
        last sample; a step beyond the hop bound (or the estimate dying
        or reappearing) opens a drain window on the shard's edges so the
        oracle sees a resync, not a violation."""
        estimate = self.bed.estimate_group_us(shard)
        tracked = shard in self._tracked
        previous = self._tracked.get(shard)
        self._tracked[shard] = None if estimate is None else (now, estimate)
        if not tracked:
            return  # first observation: nothing to reckon against
        if previous is None or estimate is None:
            rebased = (previous is None) != (estimate is None)
        else:
            expected = previous[1] + int((now - previous[0]) * 1e6)
            rebased = abs(estimate - expected) > self.config.hop_bound_us
        if not rebased:
            return
        deadline = now + self.config.RESYNC_DRAIN_S
        for neighbor in self.bed.ring.neighbors(shard):
            self._draining[(shard, neighbor)] = deadline
            self._draining[(neighbor, shard)] = deadline

    # -- reporting ------------------------------------------------------

    @property
    def summaries_sent(self) -> int:
        return sum(self.sent.values())

    @property
    def summaries_received(self) -> int:
        return sum(self.received.values())

    @property
    def summaries_rejected(self) -> int:
        return sum(self.rejected.values())

    def report(self) -> Dict:
        return {
            "summaries_sent": self.summaries_sent,
            "summaries_received": self.summaries_received,
            "summaries_rejected": self.summaries_rejected,
            "probes_sent": self.probes_sent,
            "skew_envelope": self.skew.envelope(),
        }
