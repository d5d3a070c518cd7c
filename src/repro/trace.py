"""Structured protocol tracing.

Production debugging of a group-communication stack lives and dies by
its traces.  This module provides a lightweight, zero-cost-when-disabled
event stream that the protocol layers feed:

* ``round.start`` / ``round.won`` / ``round.suppressed`` — time service;
* ``membership.gather`` / ``membership.install`` — Totem membership;
* ``replica.promote`` / ``replica.checkpoint`` / ``state.transfer`` —
  replication;

Usage::

    from repro import trace

    with trace.capture() as events:
        ...run a scenario...
    for event in events:
        print(event)

    # or stream to a callback:
    trace.subscribe(print)
"""

from __future__ import annotations

import random
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, Iterator, List, NamedTuple, Optional


class TraceContext(NamedTuple):
    """Causal identity of one cross-node operation.

    ``trace_id`` names the end-to-end operation (one client call);
    ``parent`` names the hop that forwarded it (``client.c7``,
    ``gw.n0``).  The context is carried in the live wire format
    (:mod:`repro.net.wire`), so every node an operation touches stamps
    its trace events with the same id and the
    :class:`~repro.obs.crossnode.CrossNodeSpanAssembler` can stitch
    per-node shards into one timeline.
    """

    trace_id: str
    parent: str = ""

    def child(self, hop: str) -> "TraceContext":
        """The context this hop forwards downstream: same trace, new
        causal parent."""
        return TraceContext(self.trace_id, hop)


def new_trace_id(rng: Optional[random.Random] = None) -> str:
    """A compact 64-bit hex trace id (deterministic given ``rng``)."""
    bits = (rng or random).getrandbits(64)
    return f"{bits:016x}"


class Baggage:
    """A bounded map from message identity to :class:`TraceContext`.

    Trace contexts ride the *frame*, not the envelope, so a message that
    crosses the Totem total order (request → regular message → delivery)
    loses its frame en route.  The receiving port parks the context
    here, keyed by the envelope's ``message_id``; downstream layers
    (replica execution, reply forwarding) look it up by the same key and
    the sending port re-attaches it to outgoing frames.  Bounded FIFO:
    one entry per in-flight operation, oldest evicted first.
    """

    LIMIT = 2048

    def __init__(self, limit: int = LIMIT):
        self.limit = limit
        self._entries: "OrderedDict[Hashable, TraceContext]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def put(self, key: Hashable, context: TraceContext) -> None:
        self._entries[key] = context
        self._entries.move_to_end(key)
        while len(self._entries) > self.limit:
            self._entries.popitem(last=False)

    def get(self, key: Hashable) -> Optional[TraceContext]:
        return self._entries.get(key)

    def clear(self) -> None:
        self._entries.clear()


#: The process-wide trace baggage (one node per daemon process; the
#: in-process testbeds share it, which is harmless — every node maps the
#: same message identity to the same context).
BAGGAGE = Baggage()


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record."""

    kind: str
    node: str
    fields: Dict[str, Any]

    def __str__(self) -> str:
        details = " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"[{self.node}] {self.kind} {details}"


class _Subscription:
    """One registration of a sink.

    A unique token per ``subscribe()`` call: unsubscribing is scoped to
    this registration, so subscribing the same callable twice yields two
    independent handles and releasing one (even repeatedly) never strips
    the other.
    """

    __slots__ = ("sink",)

    def __init__(self, sink: Callable[[TraceEvent], None]):
        self.sink = sink


class Tracer:
    """A fan-out sink for trace events.

    Disabled (the default) it is a single attribute check per call site;
    enabling attaches sinks that receive every event.
    """

    def __init__(self):
        self._sinks: List[_Subscription] = []

    @property
    def enabled(self) -> bool:
        return bool(self._sinks)

    def subscribe(self, sink: Callable[[TraceEvent], None]) -> Callable[[], None]:
        """Attach a sink; returns an idempotent unsubscribe function
        scoped to this registration."""
        entry = _Subscription(sink)
        self._sinks.append(entry)

        def unsubscribe() -> None:
            try:
                self._sinks.remove(entry)
            except ValueError:
                pass  # already unsubscribed

        return unsubscribe

    def emit(self, kind: str, node: str = "?", **fields: Any) -> None:
        """Record one event (no-op when no sink is attached)."""
        if not self._sinks:
            return
        event = TraceEvent(kind, node, fields)
        for entry in list(self._sinks):
            entry.sink(event)

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


#: The process-wide tracer the protocol layers emit into.
TRACER = Tracer()

#: Convenience aliases mirroring the module docstring.
subscribe = TRACER.subscribe
emit = TRACER.emit
capture = TRACER.capture
