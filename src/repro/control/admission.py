"""Shed-before-collapse admission control for the client gateway.

The gateway sits between an unbounded client population and a total
order whose throughput is bounded by CCS round latency.  Without
admission control, offered load beyond round throughput turns into an
ever-growing queue of parked operations: every request is eventually
answered, but so late that the client gave up long ago — goodput
collapses while the queues (and reply latency) grow without bound.

The controller keeps the pipeline loaded and **sheds the rest early**:

* a bounded number of operations are *in flight* (injected into the
  order, awaiting their first reply);
* excess arrivals wait in bounded **per-client FIFOs** drained
  round-robin, so one chatty identity cannot starve the others;
* an arrival that cannot be queued — or whose estimated queueing delay
  already exceeds the deadline budget — is answered immediately with a
  typed ``Overloaded`` result carrying a retry-after hint, *before* it
  costs the group a CCS round.

Shedding is deliberately cheap (one UDP reply, no ordered traffic) so
the service degrades to "some clients are told to back off" instead of
"every client times out".  All decisions are surfaced as ``repro.obs``
instruments (``cts_admission_*``) for SLO-burn dashboards.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional

from .. import obs
from ..obs import Bus

H_ADM_QUEUE_AGE = obs.histogram(
    "cts_admission_queue_age_seconds",
    "time from arrival to dispatch or shed for queued operations",
    unit="s",
    buckets=(0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5))


@dataclass
class AdmissionConfig:
    """Tuning knobs (documented for operators in docs/operations.md)."""

    #: Operations concurrently inside the total order.  Round
    #: coalescing means these share CCS rounds, so this is the pipeline
    #: depth, not a rate limit.
    max_inflight: int = 64
    #: Parked operations across all clients.
    max_global_queue: int = 256
    #: Parked operations per client identity (fairness bound).
    max_client_queue: int = 32
    #: An operation predicted (or observed) to wait longer than this is
    #: shed — its reply would arrive after any sane client deadline.
    max_queue_delay_s: float = 0.25
    #: Inflight entries older than this are presumed lost and reclaimed
    #: so a dropped reply cannot wedge admission shut.
    inflight_timeout_s: float = 5.0
    #: Bounds for the retry-after hint carried by Overloaded replies.
    retry_after_floor_s: float = 0.05
    retry_after_cap_s: float = 2.0


@dataclass
class AdmissionStats:
    admitted: int = 0
    queued: int = 0
    completed: int = 0
    reclaimed: int = 0
    shed: Dict[str, int] = field(default_factory=dict)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    def to_dict(self) -> Dict[str, object]:
        return {
            "admitted": self.admitted,
            "queued": self.queued,
            "completed": self.completed,
            "reclaimed": self.reclaimed,
            "shed": dict(self.shed),
            "shed_total": self.shed_total,
        }


#: AdmissionStats field -> the registry family read from it.
COUNTERS = obs.read_counters({
    "admitted": ("cts_admission_admitted_total",
                 "operations dispatched into the total order"),
    "queued": ("cts_admission_queued_total",
               "operations parked in a bounded client queue before dispatch"),
    "shed": ("cts_admission_shed_total",
             "operations answered Overloaded, by reason "
             "(global_full|client_full|deadline|aged_out)", "reason"),
})
#: AdmissionController property -> the gauge family read from it.
GAUGES = obs.read_gauges({
    "queue_depth": ("cts_admission_queue_depth", "operations currently parked"),
    "inflight": ("cts_admission_inflight",
                 "operations in the order awaiting replies"),
})


@dataclass
class _Pending:
    key: object
    dispatch: Callable[[], None]
    shed: Callable[[float], None]
    enqueued_at: float


class AdmissionController:
    """Bounded queues + fair dequeue + deadline-aware shedding.

    The host (the gateway) calls :meth:`submit` per *new* operation
    (retries are deduplicated upstream) with two callbacks: ``dispatch``
    injects the operation into the order, ``shed`` answers the client
    ``Overloaded`` with a retry-after hint.  Exactly one of them is
    invoked, possibly later (a parked operation dispatches when capacity
    frees, or sheds when it ages out).  :meth:`complete` must be called
    when the operation's first reply leaves the gateway.  ``clock`` is
    the host's time base, seconds: the kernel's, as every other stamp;
    ``obs`` the bed's bus it records into.
    """

    def __init__(self, config: Optional[AdmissionConfig] = None, *,
                 node_id: str = "?",
                 clock: Callable[[], float],
                 obs: Optional[Bus] = None) -> None:
        self.config = config or AdmissionConfig()
        self.node_id = node_id
        self._clock = clock
        self.metrics = (obs or Bus()).metrics
        self.stats = AdmissionStats()
        self.metrics.watch(self.stats, COUNTERS, node=node_id)
        #: op key -> dispatch instant (insertion-ordered for timeouts).
        self._inflight: "OrderedDict[object, float]" = OrderedDict()
        self._queues: Dict[str, Deque[_Pending]] = {}
        #: round-robin rotation over clients with parked operations.
        self._rr: Deque[str] = deque()
        self._depth = 0
        #: EWMA of dispatch->complete service time (retry-after basis).
        self._service_ewma_s = 0.05
        self.metrics.watch(self, GAUGES, node=node_id)

    # -- host interface ------------------------------------------------

    def submit(self, client: str, key: object,
               dispatch: Callable[[], None],
               shed: Callable[[float], None]) -> bool:
        """Admit, park, or shed one operation.  True unless shed now."""
        now = self._clock()
        self._expire_inflight(now)
        if len(self._inflight) < self.config.max_inflight and self._depth == 0:
            self._dispatch_now(key, dispatch, now)
            return True
        if self._depth >= self.config.max_global_queue:
            self._shed_now(shed, "global_full", now)
            return False
        queue = self._queues.get(client)
        if queue is not None and len(queue) >= self.config.max_client_queue:
            self._shed_now(shed, "client_full", now)
            return False
        if self._estimated_wait_s() > self.config.max_queue_delay_s:
            self._shed_now(shed, "deadline", now)
            return False
        if queue is None:
            queue = self._queues[client] = deque()
        if not queue:
            self._rr.append(client)
        queue.append(_Pending(key, dispatch, shed, now))
        self._depth += 1
        self.stats.queued += 1
        return True

    def complete(self, key: object) -> None:
        """First reply for ``key`` left the gateway (idempotent)."""
        dispatched_at = self._inflight.pop(key, None)
        if dispatched_at is None:
            return
        now = self._clock()
        service_s = max(0.0, now - dispatched_at)
        self._service_ewma_s += 0.1 * (service_s - self._service_ewma_s)
        self.stats.completed += 1
        self._pump(now)

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    @property
    def queue_depth(self) -> int:
        return self._depth

    def retry_after_s(self) -> float:
        """The backoff hint for a reply shed right now."""
        waiting = self._depth + len(self._inflight)
        parallel = max(1, self.config.max_inflight)
        estimate = (waiting / parallel + 1.0) * self._service_ewma_s
        return min(self.config.retry_after_cap_s,
                   max(self.config.retry_after_floor_s, estimate))

    # -- internals -----------------------------------------------------

    def _estimated_wait_s(self) -> float:
        # An arrival parks behind the whole backlog *and* the pipeline
        # already in the order; both drain at ~max_inflight ops per
        # service time.  Undercounting the pipeline admits operations
        # that then age out in the queue — a shed either way, but paid
        # after the wait instead of before it.
        parallel = max(1, self.config.max_inflight)
        return ((self._depth + len(self._inflight)) / parallel
                ) * self._service_ewma_s

    def _dispatch_now(self, key: object, dispatch: Callable[[], None],
                      now: float) -> None:
        self._inflight[key] = now
        self.stats.admitted += 1
        dispatch()

    def _shed_now(self, shed: Callable[[float], None], reason: str,
                  now: float) -> None:
        self.stats.shed[reason] = self.stats.shed.get(reason, 0) + 1
        shed(self.retry_after_s())

    def _expire_inflight(self, now: float) -> None:
        horizon = now - self.config.inflight_timeout_s
        while self._inflight:
            key = next(iter(self._inflight))
            if self._inflight[key] > horizon:
                break
            del self._inflight[key]
            self.stats.reclaimed += 1
        # Reclaimed capacity should immediately serve parked work.
        if len(self._inflight) < self.config.max_inflight:
            self._pump(now)

    def _pump(self, now: float) -> None:
        while self._depth and len(self._inflight) < self.config.max_inflight:
            entry = self._next_fair()
            age = now - entry.enqueued_at
            if self.metrics.enabled:
                self.metrics.observe(H_ADM_QUEUE_AGE, age, node=self.node_id)
            if age > self.config.max_queue_delay_s:
                self._shed_now(entry.shed, "aged_out", now)
                continue
            self._dispatch_now(entry.key, entry.dispatch, now)

    def _next_fair(self) -> _Pending:
        client = self._rr.popleft()
        queue = self._queues[client]
        entry = queue.popleft()
        if queue:
            self._rr.append(client)
        else:
            del self._queues[client]
        self._depth -= 1
        return entry


# -- the typed Overloaded result -------------------------------------

#: Error string carried by a shed reply's :class:`~repro.rpc.messages.Result`.
OVERLOADED = "Overloaded"


def overloaded_value(retry_after_s: float) -> Dict[str, float]:
    return {"retry_after_s": round(retry_after_s, 4)}


def is_overloaded(result) -> bool:
    """True when a Result (or its dict form) is a typed shed reply."""
    error = getattr(result, "error", None)
    if error is None and isinstance(result, dict):
        error = result.get("error")
    return error == OVERLOADED


def retry_after_of(result) -> float:
    """The retry-after hint of a shed reply (0.0 when absent)."""
    value = getattr(result, "value", None)
    if value is None and isinstance(result, dict):
        value = result.get("value")
    if isinstance(value, dict):
        try:
            return float(value.get("retry_after_s", 0.0))
        except (TypeError, ValueError):
            return 0.0
    return 0.0


__all__ = [
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionStats",
    "OVERLOADED",
    "overloaded_value",
    "is_overloaded",
    "retry_after_of",
]
