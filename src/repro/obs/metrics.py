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
* **Simulated time.**  Samples are timestamped with the *virtual* clock
  of the discrete-event kernel: the :class:`~repro.testbed.Testbed`
  binds ``registry.set_clock(lambda: sim.now)`` when it builds a
  cluster, so exported series line up with trace events and the
  latencies the benchmarks report.
* **Labels.**  Every instrument is a family; series are keyed by label
  sets (typically ``node="n2"``), mirroring the per-node tables of the
  paper's evaluation.

Usage::

    from repro.obs import REGISTRY

    ROUNDS = REGISTRY.counter("ccs_rounds_total", "CCS rounds completed")

    with REGISTRY.session():
        ...run a scenario...          # instruments record
    ROUNDS.value(node="n1")           # read back after the run
"""

from __future__ import annotations

import weakref
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

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

    def clear(self) -> None:
        raise NotImplementedError

    def samples(self) -> List[dict]:
        """Flattened per-series records for the exporters."""
        raise NotImplementedError


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


class MetricsRegistry:
    """The process-wide instrument collection.

    Disabled by default; :meth:`enable` / :meth:`session` turn recording
    on.  Instruments survive across sessions (they are module-level
    handles); :meth:`reset` clears recorded series without forgetting
    the registrations.

    Objects handed to :meth:`watch` are referenced weakly while
    recording is off.  While it is on the families hold them, so a
    crashed node's counts stay in the series until recording stops or
    :meth:`reset` starts the series over.
    """

    def __init__(self):
        self._enabled = False
        self._clock: Optional[Callable[[], float]] = None
        self._metrics: Dict[str, Metric] = {}
        #: id(object) -> (weak reference, read families, label key) for
        #: every live watched object; an entry goes when its object does.
        self._sources: Dict[int, tuple] = {}

    # -- lifecycle ------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self, clock: Optional[Callable[[], float]] = None) -> None:
        """Start recording.  Objects already being watched count from
        here: what they counted with recording off is not reported."""
        if clock is not None:
            self._clock = clock
        if not self._enabled:
            self._enabled = True
            self._attach_live_sources()

    def disable(self) -> None:
        """Stop recording; the series keep their last sampled values."""
        self._enabled = False
        for metric in self._metrics.values():
            if isinstance(metric, _ScalarMetric):
                metric.fold()

    def set_clock(self, clock: Callable[[], float]) -> None:
        """Bind the (simulated) time source used to stamp samples."""
        self._clock = clock

    def now(self) -> float:
        return self._clock() if self._clock is not None else 0.0

    def reset(self) -> None:
        """Clear all recorded series (registrations are kept); watched
        objects that are still alive count from zero again."""
        for metric in self._metrics.values():
            metric.clear()
        if self._enabled:
            self._attach_live_sources()

    @contextmanager
    def session(
        self, clock: Optional[Callable[[], float]] = None
    ) -> Iterator["MetricsRegistry"]:
        """Record within a ``with`` block: reset, enable, then disable.

        Recorded series stay readable after the block exits.
        """
        self.reset()
        self.enable(clock)
        try:
            yield self
        finally:
            self.disable()

    # -- registration ---------------------------------------------------

    def _register(self, cls, name: str, **kwargs) -> Metric:
        existing = self._metrics.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise MetricsError(
                    f"metric {name!r} already registered as {existing.kind}"
                )
            return existing
        metric = cls(self, name, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, help: str = "", unit: str = "") -> Counter:
        return self._register(Counter, name, help=help, unit=unit)

    def gauge(self, name: str, help: str = "", unit: str = "") -> Gauge:
        return self._register(Gauge, name, help=help, unit=unit)

    def histogram(self, name: str, help: str = "", unit: str = "",
                  buckets: Optional[Sequence[float]] = None) -> Histogram:
        return self._register(Histogram, name, help=help, unit=unit,
                              buckets=buckets)

    # -- families read from plain attributes ----------------------------

    def read_counters(self, fields: Dict[str, tuple]) -> Tuple[tuple, ...]:
        """Declare counter families that are read, not pushed.

        ``fields`` maps an attribute name of the objects a layer will
        :meth:`watch` to ``(family name, help)``, or to ``(family name,
        help, label)`` when the attribute is a dict of counts keyed by
        the values of ``label``.  Returns the declaration to pass to
        :meth:`watch`.
        """
        return self._declare(Counter, fields)

    def read_gauges(self, fields: Dict[str, tuple]) -> Tuple[tuple, ...]:
        """Declare gauge families that are read, not pushed: ``fields``
        maps an attribute (a property will do) of the watched objects
        to ``(family name, help)``."""
        return self._declare(Gauge, fields)

    def _declare(self, cls, fields: Dict[str, tuple]) -> Tuple[tuple, ...]:
        return tuple(
            (attr, self._register(cls, spec[0], help=spec[1]),
             spec[2] if len(spec) > 2 else None)
            for attr, spec in fields.items()
        )

    def watch(self, obj: Any, families: Tuple[tuple, ...],
              **labels: Any) -> None:
        """Report ``obj``'s plain attributes under ``labels``.

        Called once per object, when it is built.  With recording off
        this keeps a weak reference; with it on the families hold the
        object and read it whenever they are sampled.
        """
        ident, key = id(obj), _label_key(labels)
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


#: The process-wide registry the protocol layers record into.
REGISTRY = MetricsRegistry()
