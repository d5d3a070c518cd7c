"""Exporters over one :class:`~repro.obs.metrics.MetricsRegistry`:
:func:`write_jsonl` (one JSON record per metric series, trace event and
round span), :func:`prometheus_text` (the ``text/plain; version=0.0.4``
exposition a real scrape returns) and :func:`summary_table` (the
roll-up the CLI prints).
"""

from __future__ import annotations

import io
import json
from pathlib import Path
from typing import IO, Iterable, List, Optional, Union

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from ..trace import TraceEvent

PathOrFile = Union[str, Path, IO[str]]


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------

def trace_event_record(event: TraceEvent) -> dict:
    """The JSONL encoding of one trace event."""
    record = {"record": "trace", "kind": event.kind, "node": event.node}
    record.update(event.fields)
    return record


def write_jsonl(
    registry: MetricsRegistry,
    target: PathOrFile,
    *,
    trace_events: Optional[Iterable[TraceEvent]] = None,
    spans: Optional[Iterable] = None,
) -> int:
    """Dump the registry (and optional trace events and
    :class:`~repro.obs.crossnode.RoundSpan` records) as JSON lines.

    Returns the number of records written.  Record types are
    distinguished by the ``record`` field: ``metric``, ``trace``,
    ``span``.  A path's missing parent directories are created.
    """
    records: List[dict] = []
    for sample in registry.collect():
        records.append({"record": "metric", **sample})
    for event in trace_events or ():
        records.append(trace_event_record(event))
    for span in spans or ():
        records.append({"record": "span", **span.to_dict()})

    if hasattr(target, "write"):
        out = target
        close = False
    else:
        Path(target).parent.mkdir(parents=True, exist_ok=True)
        out = open(target, "w", encoding="utf-8")
        close = True
    try:
        for record in records:
            out.write(json.dumps(record, default=str) + "\n")
    finally:
        if close:
            out.close()
    return len(records)


def read_jsonl(source: PathOrFile, *, strict: bool = False) -> List[dict]:
    """Parse a dump produced by :func:`write_jsonl`.

    By default malformed lines are skipped — dumps written by a crashing
    process are routinely truncated mid-line, and trace shards from a
    killed daemon must still assemble.  Pass ``strict=True`` to raise
    ``json.JSONDecodeError`` on the first bad line instead.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        lines = Path(source).read_text(encoding="utf-8").splitlines()
    records: List[dict] = []
    for line in lines:
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if strict:
                raise
    return records


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

def _escape_label_value(value: str) -> str:
    return (value.replace("\\", r"\\")
                 .replace("\n", r"\n")
                 .replace('"', r'\"'))


def _format_labels(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in sorted(merged.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


def _exposition_lines(metric) -> List[str]:
    """One family's sample lines (none for a family with no series)."""
    name, lines = metric.name, []
    if isinstance(metric, (Counter, Gauge)):
        for labels, value in metric.items():
            lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")
    elif isinstance(metric, Histogram):
        for labels, snap in metric.items():
            for bound, cumulative in snap.cumulative():
                le = _format_value(float(bound))
                lines.append(f"{name}_bucket"
                             f"{_format_labels(labels, {'le': le})} {cumulative}")
            lines.append(f"{name}_sum{_format_labels(labels)} "
                         f"{_format_value(snap.sum)}")
            lines.append(f"{name}_count{_format_labels(labels)} {snap.count}")
    return lines


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render the registry in the Prometheus text exposition format."""
    out = io.StringIO()
    for metric in registry.metrics():
        lines = _exposition_lines(metric)
        if not lines:
            continue
        if metric.help:
            out.write(f"# HELP {metric.name} {metric.help}\n")
        out.write(f"# TYPE {metric.name} {metric.kind}\n")
        out.write("".join(line + "\n" for line in lines))
    return out.getvalue()


# ----------------------------------------------------------------------
# Human-readable summary
# ----------------------------------------------------------------------

def summary_table(registry: MetricsRegistry, *, title: str = "metrics") -> str:
    """A terminal-friendly roll-up of every recorded series."""
    from ..analysis.tables import format_table  # local: avoid import cycle

    rows = []
    for metric in registry.metrics():
        if isinstance(metric, (Counter, Gauge)):
            for labels, value in metric.items():
                rows.append([
                    metric.name,
                    metric.kind,
                    _format_labels(labels) or "-",
                    _format_value(value),
                ])
        elif isinstance(metric, Histogram):
            for labels, snap in metric.items():
                detail = (f"count={snap.count} mean={snap.mean:.1f} "
                          f"min={_format_value(snap.minimum or 0)} "
                          f"max={_format_value(snap.maximum or 0)}")
                rows.append([
                    metric.name, metric.kind,
                    _format_labels(labels) or "-", detail,
                ])
    if not rows:
        return f"{title}: (no samples recorded)"
    return format_table(["metric", "type", "labels", "value"], rows,
                        title=title)
