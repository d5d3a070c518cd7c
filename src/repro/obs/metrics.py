"""Metrics registry: counters, gauges and fixed-bucket histograms.

A Prometheus-flavoured, dependency-free instrument set for the CTS
stack.  Design constraints:

* **State is read.**  The protocol layers keep their counts and state
  as plain attributes (``CTSStats.ccs_sent``,
  ``GroupClockState.offset_us``) whether or not anyone records.
  Counter and gauge families are *read* from them when sampled: each
  layer object is handed to :meth:`MetricsRegistry.watch` once, at
  construction — nothing runs at the site of a count or a change.
* **Zero-cost when disabled.**  Histograms have no state to read and
  stay pushed; every mutator begins with a single ``registry.enabled``
  check.  Watching an object while recording is off keeps one weak
  reference and nothing else.
* **One registry per bed** (:class:`repro.obs.Bus`), stamping samples
  with that bed's kernel time.  A module declares its families as plain
  :class:`Family` specs (:func:`histogram`, :func:`read_counters`,
  :func:`read_gauges`); a registry creates a family the first time a
  layer on it uses it.
* **Labels.**  Series are keyed by label sets (typically
  ``node="n2"``), mirroring the per-node tables of the paper's
  evaluation.

Usage::

    ROUNDS = read_counters({"rounds": ("ccs_rounds_total", "CCS rounds")})
    registry.watch(stats, ROUNDS, node="n1")     # at construction
    with registry.session():
        ...run a scenario...                      # stats.rounds counts
    registry.get("ccs_rounds_total").value(node="n1")
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterator, List, NamedTuple, Optional,
                    Sequence, Tuple)

from ..errors import ReproError

#: Canonical label-set key: sorted (name, value) pairs.
LabelKey = Tuple[Tuple[str, str], ...]


class MetricsError(ReproError):
    """Invalid metric registration or update."""


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base class: one named family of labelled series."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str,
                 help: str = "", unit: str = ""):
        self.registry = registry
        self.name = name
        self.help = help
        self.unit = unit


class _ScalarMetric(Metric):
    """What counters and gauges share: one number per label set."""

    def __init__(self, registry, name, help="", unit=""):
        super().__init__(registry, name, help, unit)
        #: label key -> [value, last_updated_sim_time]
        self._series: Dict[LabelKey, List[float]] = {}
        #: (object, attribute, label key, keyed label, value at attach)
        self._watched: List[tuple] = []

    def _sampled(self) -> Dict[LabelKey, List[float]]:
        return self._series

    def fold(self) -> None:
        """Recording stopped: keep the sampled values, drop the objects."""
        self._series = self._sampled()
        self._watched.clear()

    def value(self, **labels: Any) -> float:
        entry = self._sampled().get(_label_key(labels))
        return entry[0] if entry else 0.0

    def items(self) -> Iterator[Tuple[Dict[str, str], float]]:
        for key, entry in sorted(self._sampled().items()):
            yield dict(key), entry[0]

    def clear(self) -> None:
        self._series.clear()
        self._watched.clear()

    def samples(self) -> List[dict]:
        return [
            {"name": self.name, "type": self.kind, "labels": dict(key),
             "value": entry[0], "t": entry[1]}
            for key, entry in sorted(self._sampled().items())
        ]


class Counter(_ScalarMetric):
    """A monotonically increasing count.

    Fed two ways.  *Pushed*: :meth:`inc` adds to a stored series (user
    code; no protocol layer pushes).  *Read*: an object attached by
    :meth:`MetricsRegistry.watch` contributes ``attribute now -
    attribute when attached`` each time the family is sampled; when
    recording stops that difference is folded into the stored series
    and the object is let go.
    """

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        registry = self.registry
        if not registry._enabled:
            return
        if amount < 0:
            raise MetricsError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        entry = self._series.get(key)
        if entry is None:
            entry = self._series[key] = [0.0, 0.0]
        entry[0] += amount
        entry[1] = registry.now()

    def _sampled(self) -> Dict[LabelKey, List[float]]:
        """Stored series plus what each watched object counted since it
        was attached, stamped with the time of this sample.  As with
        :meth:`inc`, a series exists once its count is non-zero."""
        if not self._watched:
            return self._series
        now = self.registry.now()
        merged = {key: list(entry) for key, entry in self._series.items()}
        for obj, attr, key, keyed, base in self._watched:
            current = getattr(obj, attr)
            if keyed is None:
                deltas = [(key, current - base)]
            else:
                deltas = [
                    (tuple(sorted(key + ((keyed, str(k)),))),
                     count - base.get(k, 0))
                    for k, count in list(current.items())
                ]
            for series_key, delta in deltas:
                if delta:
                    entry = merged.setdefault(series_key, [0.0, now])
                    entry[0] += delta
                    entry[1] = now
        return merged

    def total(self) -> float:
        """Sum over every label set."""
        return sum(entry[0] for entry in self._sampled().values())


class Gauge(_ScalarMetric):
    """A value that can go up and down (e.g. a clock offset).

    *Set* by :meth:`set` (user code), or *read*: a watched object
    reports its attribute at each sample, stamped with the sample's
    time (``None`` reports nothing); the newest one watched under a
    label set wins it, e.g. a recovered node's new incarnation.
    """

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        registry = self.registry
        if not registry._enabled:
            return
        key = _label_key(labels)
        self._series[key] = [float(value), registry.now()]

    def _sampled(self) -> Dict[LabelKey, List[float]]:
        if not self._watched:
            return self._series
        now = self.registry.now()
        merged = dict(self._series)
        for obj, attr, key, _, _ in self._watched:
            value = getattr(obj, attr)
            if value is not None:
                merged[key] = [float(value), now]
        return merged


@dataclass
class HistogramSnapshot:
    """Read-back view of one histogram series."""

    count: int
    sum: float
    minimum: Optional[float]
    maximum: Optional[float]
    #: Parallel to ``bounds`` plus a final +Inf bucket: per-bucket counts
    #: (NOT cumulative).
    bucket_counts: Tuple[int, ...]
    bounds: Tuple[float, ...]

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def cumulative(self) -> List[Tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(
            list(self.bounds) + [float("inf")], self.bucket_counts
        ):
            running += count
            out.append((bound, running))
        return out


class _HistSeries:
    __slots__ = ("counts", "sum", "count", "minimum", "maximum", "updated")

    def __init__(self, num_buckets: int):
        self.counts = [0] * num_buckets
        self.sum = 0.0
        self.count = 0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.updated = 0.0


class Histogram(Metric):
    """Fixed-bucket distribution (latencies, sizes)."""

    kind = "histogram"

    #: Powers-of-two microsecond-ish ladder; override per instrument.
    DEFAULT_BUCKETS = (1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0,
                       500.0, 1000.0, 2500.0, 5000.0, 10000.0)

    def __init__(self, registry, name, help="", unit="",
                 buckets: Optional[Sequence[float]] = None):
        super().__init__(registry, name, help, unit)
        bounds = tuple(sorted(buckets if buckets is not None
                              else self.DEFAULT_BUCKETS))
        if not bounds:
            raise MetricsError(f"histogram {self.name} needs buckets")
        self.bounds = bounds
        self._series: Dict[LabelKey, _HistSeries] = {}

    def observe(self, value: float, **labels: Any) -> None:
        registry = self.registry
        if not registry._enabled:
            return
        key = _label_key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistSeries(len(self.bounds) + 1)
        value = float(value)
        series.counts[bisect_left(self.bounds, value)] += 1
        series.sum += value
        series.count += 1
        if series.minimum is None or value < series.minimum:
            series.minimum = value
        if series.maximum is None or value > series.maximum:
            series.maximum = value
        series.updated = registry.now()

    def snapshot(self, **labels: Any) -> HistogramSnapshot:
        series = self._series.get(_label_key(labels))
        if series is None:
            return HistogramSnapshot(0, 0.0, None, None,
                                     (0,) * (len(self.bounds) + 1), self.bounds)
        return HistogramSnapshot(
            series.count, series.sum, series.minimum, series.maximum,
            tuple(series.counts), self.bounds,
        )

    def total_count(self) -> int:
        return sum(series.count for series in self._series.values())

    def items(self) -> Iterator[Tuple[Dict[str, str], HistogramSnapshot]]:
        for key in sorted(self._series):
            yield dict(key), self.snapshot(**dict(key))

    def clear(self) -> None:
        self._series.clear()

    def samples(self) -> List[dict]:
        out = []
        for key in sorted(self._series):
            series = self._series[key]
            snap = self.snapshot(**dict(key))
            out.append({
                "name": self.name, "type": self.kind, "labels": dict(key),
                "count": snap.count, "sum": snap.sum,
                "min": snap.minimum, "max": snap.maximum,
                "buckets": [[b, c] for b, c in snap.cumulative()],
                "t": series.updated,
            })
        return out


class Family(NamedTuple):
    """One family a layer may record into, declared once at module
    level.  A spec holds no series: a registry creates the family the
    first time a layer on it uses the spec."""

    kind: type
    name: str
    help: str = ""
    unit: str = ""
    buckets: Optional[Tuple[float, ...]] = None


class Read(NamedTuple):
    """A watched object's attribute and the family read from it
    (``keyed``: the label a dict attribute's keys fill)."""

    attr: str
    family: Family
    keyed: Optional[str] = None


def histogram(name: str, help: str = "", unit: str = "",
              buckets: Optional[Sequence[float]] = None) -> Family:
    """Declare a pushed histogram family."""
    return Family(Histogram, name, help, unit,
                  None if buckets is None else tuple(buckets))


def read_counters(fields: Dict[str, tuple]) -> Tuple[Read, ...]:
    """Declare counter families that are read, not pushed.

    ``fields`` maps an attribute name of the objects a layer will
    :meth:`~MetricsRegistry.watch` to ``(family name, help)``, or to
    ``(family name, help, label)`` when the attribute is a dict of counts
    keyed by the values of ``label``.  Returns the declaration to pass
    to ``watch``.
    """
    return _declare(Counter, fields)


def read_gauges(fields: Dict[str, tuple]) -> Tuple[Read, ...]:
    """Declare gauge families that are read, not pushed: ``fields``
    maps an attribute (a property will do) of the watched objects to
    ``(family name, help)``."""
    return _declare(Gauge, fields)


def _declare(kind: type, fields: Dict[str, tuple]) -> Tuple[Read, ...]:
    return tuple(Read(attr, Family(kind, spec[0], spec[1]), *spec[2:])
                 for attr, spec in fields.items())


class MetricsRegistry:
    """One bed's instrument collection.

    Disabled by default; :meth:`enable` / :meth:`session` turn recording
    on.  Families survive across sessions; :meth:`reset` clears recorded
    series without forgetting them.  ``clock`` stamps samples (0.0
    without one).

    Objects handed to :meth:`watch` are referenced weakly while
    recording is off.  While it is on the families hold them, so a
    crashed node's counts stay in the series until recording stops or
    :meth:`reset` starts the series over.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._enabled = False
        self.clock = clock
        self._metrics: Dict[str, Metric] = {}
        #: id(object) -> (weak reference, read families, label key) for
        #: every live watched object; an entry goes when its object does.
        self._sources: Dict[int, tuple] = {}

    # -- lifecycle ------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        """Start recording.  Objects already being watched count from
        here: what they counted with recording off is not reported."""
        if not self._enabled:
            self._enabled = True
            self._attach_live_sources()

    def disable(self) -> None:
        """Stop recording; the series keep their last sampled values."""
        self._enabled = False
        for metric in self._metrics.values():
            if isinstance(metric, _ScalarMetric):
                metric.fold()

    def now(self) -> float:
        return self.clock() if self.clock is not None else 0.0

    def reset(self) -> None:
        """Clear all recorded series (families are kept); watched
        objects that are still alive count from zero again."""
        for metric in self._metrics.values():
            metric.clear()
        if self._enabled:
            self._attach_live_sources()

    @contextmanager
    def session(self) -> Iterator["MetricsRegistry"]:
        """Record within a ``with`` block: reset, enable, then disable.

        Recorded series stay readable after the block exits.
        """
        self.reset()
        self.enable()
        try:
            yield self
        finally:
            self.disable()

    # -- families -------------------------------------------------------

    def family(self, spec: Family) -> Metric:
        """The family ``spec`` declares, created on first use."""
        existing = self._metrics.get(spec.name)
        if existing is not None:
            if type(existing) is not spec.kind:
                raise MetricsError(
                    f"metric {spec.name!r} already registered as "
                    f"{existing.kind}")
            return existing
        options = {} if spec.kind is not Histogram else {"buckets": spec.buckets}
        metric = spec.kind(self, spec.name, help=spec.help, unit=spec.unit,
                           **options)
        self._metrics[spec.name] = metric
        return metric

    def counter(self, name: str, help: str = "", unit: str = "") -> Counter:
        return self.family(Family(Counter, name, help, unit))

    def gauge(self, name: str, help: str = "", unit: str = "") -> Gauge:
        return self.family(Family(Gauge, name, help, unit))

    def histogram(self, name: str, help: str = "", unit: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self.family(histogram(name, help, unit, buckets))

    def observe(self, spec: Family, value: float, **labels: Any) -> None:
        """Push one sample into the histogram ``spec`` declares."""
        self.family(spec).observe(value, **labels)

    # -- families read from plain attributes ----------------------------

    def watch(self, obj: Any, reads: Tuple[Read, ...], **labels: Any) -> None:
        """Report ``obj``'s plain attributes under ``labels``.

        Called once per object, when it is built, with a
        :func:`read_counters` / :func:`read_gauges` declaration.  With
        recording off this keeps a weak reference; with it on the
        families hold the object and read it whenever they are sampled.
        """
        ident, key = id(obj), _label_key(labels)
        families = tuple((read.attr, self.family(read.family), read.keyed)
                         for read in reads)
        self._sources[ident] = (
            weakref.ref(obj, lambda _: self._sources.pop(ident, None)),
            families, key)
        if self._enabled:
            self._attach(obj, families, key)

    def _attach_live_sources(self) -> None:
        for ref, families, key in list(self._sources.values()):
            obj = ref()
            if obj is not None:
                self._attach(obj, families, key)

    @staticmethod
    def _attach(obj: Any, families: Tuple[tuple, ...], key: LabelKey) -> None:
        for attr, family, keyed in families:
            base = getattr(obj, attr)
            family._watched.append(
                (obj, attr, key, keyed, base if keyed is None else dict(base)))

    # -- reading --------------------------------------------------------

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def metrics(self) -> List[Metric]:
        return [self._metrics[name] for name in sorted(self._metrics)]

    def collect(self) -> List[dict]:
        """Every series of every instrument, flattened for export."""
        out: List[dict] = []
        for metric in self.metrics():
            out.extend(metric.samples())
        return out
