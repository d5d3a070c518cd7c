"""Structured protocol tracing.

A zero-cost-when-disabled event stream the protocol layers feed:
``round.*`` (time service),
``membership.*`` (Totem), ``replica.*`` / ``state.*`` (replication)
and ``op.send`` … ``op.reply_recv``, one client operation's hops, each
named by :func:`op_trace_id` (see :mod:`repro.obs.crossnode`).

There is no process-wide tracer: each bed owns one :class:`Tracer`
(``bed.obs.tracer``, see :class:`repro.obs.Bus`) and hands it to every
layer it builds, so two beds in one process are traced apart::

    with bed.obs.tracer.capture(["round."]) as events:
        ...run a scenario on bed...
    unsubscribe = bed.obs.tracer.subscribe(print)   # or stream them
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple


class TraceContext(NamedTuple):
    """The optional trace field of a v3/v4 live frame
    (:mod:`repro.net.wire`): a trace id and the hop that sent it.

    Nothing sends one any more: an operation is named by its key
    (:func:`op_trace_id`), which every hop already holds.  A received
    context is decoded, validated and ignored.
    """

    trace_id: str
    parent: str = ""


def op_trace_id(key: Tuple[str, str, int, int]) -> str:
    """The trace id of one client operation: its key ``(service group,
    client group, conn, seq)`` — what the gateway deduplicates on and
    :attr:`~repro.replication.envelope.MessageHeader.op_key` reads off
    a request or a reply — as ``svc/client.c7/1/42``.  Every ``op.*``
    event carries it as ``trace``."""
    return "{}/{}/{}/{}".format(*key)


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record."""

    kind: str
    node: str
    fields: Dict[str, Any]

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"[{self.node}] {self.kind} {details}"


class Tracer:
    """A fan-out sink for trace events.

    A bed owns one (``bed.obs.tracer``) and hands it to every layer it
    builds.  Disabled (no sink attached) it is a single attribute check
    per call site; enabling attaches sinks that receive every event.
    """

    def __init__(self):
        #: One entry per ``subscribe()`` call, keyed by a fresh token:
        #: subscribing the same callable twice yields two independent
        #: handles, and releasing one (even repeatedly) never strips the
        #: other.
        self._sinks: Dict[object, Callable[[TraceEvent], None]] = {}

    @property
    def enabled(self) -> bool:
        return bool(self._sinks)

    def subscribe(self, sink: Callable[[TraceEvent], None]) -> Callable[[], None]:
        """Attach a sink; returns an idempotent unsubscribe function
        scoped to this registration."""
        token = object()
        self._sinks[token] = sink

        def unsubscribe() -> None:
            self._sinks.pop(token, None)

        return unsubscribe

    def emit(self, kind: str, node: str = "?", **fields: Any) -> None:
        """Record one event (no-op when no sink is attached)."""
        if not self._sinks:
            return
        event = TraceEvent(kind, node, fields)
        for sink in list(self._sinks.values()):
            sink(event)

    @contextmanager
    def capture(
        self, kinds: Optional[List[str]] = None
    ) -> Iterator[List[TraceEvent]]:
        """Collect events for the duration of a ``with`` block.

        ``kinds`` optionally filters by event kind prefix, e.g.
        ``["round."]`` keeps only time-service round events.
        """
        events: List[TraceEvent] = []

        def sink(event: TraceEvent) -> None:
            if kinds is None or any(event.kind.startswith(k) for k in kinds):
                events.append(event)

        unsubscribe = self.subscribe(sink)
        try:
            yield events
        finally:
            unsubscribe()
