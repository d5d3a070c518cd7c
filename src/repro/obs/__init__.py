"""Observability for the CTS stack: metrics, round spans, exporters.

Every bed records into its own :class:`Bus` (``bed.obs``): a tracer and
a metrics registry, handed to each layer when the layer is built.
Nothing is process-wide, so two beds in one process are traced and
counted apart; a command that runs several beds hands them one bus.
The parts (``docs/observability.md`` has the catalogue):
:mod:`~repro.obs.metrics` (the registry and the family specs),
:mod:`~repro.obs.export` (JSONL, Prometheus text, summary tables),
:mod:`~repro.obs.crossnode` (trace shards, op timelines and
:class:`RoundSpan` records), :mod:`~repro.obs.flight` (the bounded
:class:`FlightRecorder`) and :mod:`~repro.obs.http` (the scrape
endpoint behind ``repro serve --metrics-port``).

Quick start::

    bed = Testbed(seed=1)
    ...deploy...
    with bed.obs.metrics.session(), bed.obs.tracer.capture() as events:
        ...run a scenario on bed...
    print(obs.export.summary_table(bed.obs.metrics))
    spans = obs.CrossNodeSpanAssembler()
    spans.add_events(map(obs.export.trace_event_record, events))
    print(spans.winner_counts())
"""

from typing import Callable, Optional

from ..trace import Tracer
from . import export
from .crossnode import (CrossNodeSpanAssembler, Hop, OpTimeline, RoundSpan,
                        TraceShardWriter, assemble_timelines, load_shards)
from .flight import FlightRecorder
from .http import MetricsHttpServer
from .metrics import (Counter, Family, Gauge, Histogram, HistogramSnapshot,
                      MetricsError, MetricsRegistry, histogram, read_counters,
                      read_gauges)


class Bus:
    """One bed's telemetry: the tracer its layers emit into and the
    registry they record into, both off until someone subscribes or
    enables.  An object built without one gets its own."""

    __slots__ = ("tracer", "metrics")

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self.tracer = Tracer()
        self.metrics = MetricsRegistry(clock)
