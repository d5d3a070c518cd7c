"""Observability for the CTS stack: metrics, round spans, exporters.

The subsystem has three parts (see ``docs/observability.md`` for the
full catalogue):

* :mod:`repro.obs.metrics` — the process-wide :data:`REGISTRY` of
  counters, gauges and fixed-bucket histograms.  Zero-cost when
  disabled; samples are stamped with *simulated* time.
* :mod:`repro.obs.spans` — :class:`RoundSpanTracker`, which assembles a
  per-round lifecycle record for every CCS round from the trace stream.
* :mod:`repro.obs.export` — JSONL dumps, Prometheus text exposition and
  human-readable summary tables.
* :mod:`repro.obs.crossnode` — per-node trace shards and the
  :class:`CrossNodeSpanAssembler` that stitches them into end-to-end op
  timelines across the live stack.
* :mod:`repro.obs.flight` — the bounded :class:`FlightRecorder` ring
  dumped on daemon crash or invariant violation.
* :mod:`repro.obs.http` — :class:`MetricsHttpServer`, the scrape
  endpoint behind ``repro serve --metrics-port``.

Quick start::

    from repro import obs

    with obs.REGISTRY.session(), obs.RoundSpanTracker() as spans:
        ...run a scenario...
    print(obs.export.summary_table(obs.REGISTRY))
    sent = obs.REGISTRY.get("ccs_sent_total").total()
"""

from . import export
from .crossnode import (
    CrossNodeSpanAssembler,
    Hop,
    OpTimeline,
    TraceShardWriter,
    assemble_timelines,
    load_shards,
)
from .flight import FlightRecorder
from .http import MetricsHttpServer
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    HistogramSnapshot,
    MetricsError,
    MetricsRegistry,
    REGISTRY,
)
from .spans import RoundSpan, RoundSpanTracker

__all__ = [
    "Counter",
    "CrossNodeSpanAssembler",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "HistogramSnapshot",
    "Hop",
    "MetricsError",
    "MetricsHttpServer",
    "MetricsRegistry",
    "OpTimeline",
    "REGISTRY",
    "RoundSpan",
    "RoundSpanTracker",
    "TraceShardWriter",
    "assemble_timelines",
    "export",
    "load_shards",
]
