"""Unit tests for the metrics registry and its instruments."""

import pytest

from repro.obs import (Counter, Gauge, Histogram, MetricsError, MetricsRegistry,
                       histogram, read_gauges)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_disabled_registry_records_nothing(self, registry):
        counter = registry.counter("c")
        counter.inc(5, node="n1")
        assert counter.value(node="n1") == 0.0
        assert counter.samples() == []

    def test_inc_accumulates_per_label_set(self, registry):
        counter = registry.counter("c")
        registry.enable()
        counter.inc(node="n1")
        counter.inc(2, node="n1")
        counter.inc(7, node="n2")
        assert counter.value(node="n1") == 3.0
        assert counter.value(node="n2") == 7.0
        assert counter.value(node="n9") == 0.0
        assert counter.total() == 10.0

    def test_negative_increment_rejected(self, registry):
        counter = registry.counter("c")
        registry.enable()
        with pytest.raises(MetricsError):
            counter.inc(-1)

    def test_samples_timestamped_with_bound_clock(self, registry):
        counter = registry.counter("c")
        registry.clock = lambda: 12.5
        registry.enable()
        counter.inc(node="n1")
        (sample,) = counter.samples()
        assert sample["t"] == 12.5
        assert sample["labels"] == {"node": "n1"}
        assert sample["value"] == 1.0


class TestGauge:
    def test_set_keeps_the_last_value(self, registry):
        gauge = registry.gauge("g")
        registry.enable()
        gauge.set(4.0, node="n1")
        gauge.set(2.5, node="n1")
        assert gauge.value(node="n1") == 2.5

    def test_disabled_set_is_noop(self, registry):
        gauge = registry.gauge("g")
        gauge.set(4.0, node="n1")
        assert gauge.value(node="n1") == 0.0


class Thing:
    def __init__(self, level=None):
        self.level = level


class TestReadGauges:
    """A watched attribute is the gauge: read at each sample, newest
    object first, its last value kept when recording stops."""

    def test_reports_the_attribute_at_sample_time(self, registry):
        declared = read_gauges({"level": ("level", "a level")})
        thing = Thing()
        registry.watch(thing, declared, node="n1")
        gauge = registry.get("level")
        registry.clock = lambda: 7.0
        with registry.session():
            assert gauge.samples() == []  # None reports nothing
            thing.level = 3
            registry.clock = lambda: 9.0
            assert gauge.value(node="n1") == 3.0
            (sample,) = gauge.samples()
            assert sample["t"] == 9.0  # the sample's time
        thing.level = 8
        assert gauge.value(node="n1") == 3.0  # folded when recording stopped
        assert gauge._watched == []

    def test_a_gauge_built_before_recording_is_read(self, registry):
        declared = read_gauges({"level": ("level", "a level")})
        thing = Thing(5)
        registry.watch(thing, declared, node="n1")
        with registry.session():
            pass
        assert registry.get("level").value(node="n1") == 5.0

    def test_the_newest_object_wins_the_label_set(self, registry):
        declared = read_gauges({"level": ("level", "a level")})
        old, new = Thing(1), Thing()
        registry.watch(old, declared, node="n1")
        with registry.session():
            registry.watch(new, declared, node="n1")
            gauge = registry.get("level")
            assert gauge.value(node="n1") == 1.0  # new has no value yet
            new.level = 2
            old.level = 9
            assert gauge.value(node="n1") == 2.0

    def test_disabled_reads_keep_only_a_weak_reference(self, registry):
        declared = read_gauges({"level": ("level", "a level")})
        registry.watch(Thing(4), declared, node="n1")
        with registry.session():
            pass
        assert registry.collect() == []


class TestHistogram:
    def test_bucket_assignment(self, registry):
        hist = registry.histogram("h", buckets=(10, 100))
        registry.enable()
        for value in (3, 10, 50, 99, 100, 250):
            hist.observe(value)
        snap = hist.snapshot()
        # bisect_left: values equal to a bound land in that bucket.
        assert snap.bucket_counts == (2, 3, 1)
        assert snap.cumulative() == [(10, 2), (100, 5), (float("inf"), 6)]
        assert snap.count == 6
        assert snap.sum == 512
        assert snap.minimum == 3
        assert snap.maximum == 250
        assert snap.mean == pytest.approx(512 / 6)

    def test_empty_snapshot(self, registry):
        hist = registry.histogram("h", buckets=(1, 2))
        snap = hist.snapshot(node="n1")
        assert snap.count == 0
        assert snap.mean == 0.0
        assert snap.bucket_counts == (0, 0, 0)

    def test_bounds_are_sorted(self, registry):
        hist = registry.histogram("h", buckets=(100, 1, 10))
        assert hist.bounds == (1, 10, 100)

    def test_requires_buckets(self, registry):
        with pytest.raises(MetricsError):
            registry.histogram("h", buckets=())

    def test_disabled_observe_is_noop(self, registry):
        hist = registry.histogram("h", buckets=(1,))
        hist.observe(0.5)
        assert hist.total_count() == 0


class TestRegistry:
    def test_registration_is_idempotent(self, registry):
        first = registry.counter("c", help="one")
        second = registry.counter("c", help="two")
        assert first is second

    def test_type_conflict_raises(self, registry):
        registry.counter("c")
        with pytest.raises(MetricsError):
            registry.gauge("c")

    def test_a_spec_becomes_a_family_on_first_use(self, registry):
        spec = histogram("h", "a histogram", unit="us", buckets=(5, 1))
        assert registry.get("h") is None
        registry.enable()
        registry.observe(spec, 3.0, node="n1")
        family = registry.get("h")
        assert isinstance(family, Histogram) and family.bounds == (1, 5)
        assert registry.family(spec) is family
        assert family.snapshot(node="n1").count == 1
        # Specs hold no series: another registry starts empty.
        assert MetricsRegistry().family(spec).total_count() == 0

    def test_get_and_metrics_listing(self, registry):
        registry.counter("b")
        registry.gauge("a")
        assert registry.get("a") is not None
        assert registry.get("missing") is None
        assert [m.name for m in registry.metrics()] == ["a", "b"]

    def test_reset_clears_series_keeps_registrations(self, registry):
        counter = registry.counter("c")
        registry.enable()
        counter.inc(node="n1")
        registry.reset()
        assert registry.get("c") is counter
        assert counter.value(node="n1") == 0.0

    def test_session_scopes_recording(self, registry):
        counter = registry.counter("c")
        counter.inc()  # before: disabled
        with registry.session():
            assert registry.enabled
            counter.inc()
        assert not registry.enabled
        counter.inc()  # after: disabled again
        # The in-session sample survives the block for reading back.
        assert counter.total() == 1.0

    def test_session_resets_previous_data(self, registry):
        counter = registry.counter("c")
        with registry.session():
            counter.inc(5)
        with registry.session():
            pass
        assert counter.total() == 0.0

    def test_clock_defaults_to_zero(self, registry):
        assert registry.now() == 0.0
        registry.clock = lambda: 3.25
        assert registry.now() == 3.25

    def test_collect_flattens_all_instruments(self, registry):
        registry.enable()
        registry.counter("c").inc(node="n1")
        registry.gauge("g").set(2.0)
        registry.histogram("h", buckets=(1,)).observe(0.5)
        names = [sample["name"] for sample in registry.collect()]
        assert names == ["c", "g", "h"]


class TestZeroCostWhenDisabled:
    """The disabled path must not allocate series or touch the clock."""

    def test_no_series_created(self, registry):
        ticks = []
        registry.clock = lambda: ticks.append(1) or 0.0
        registry.counter("c").inc(node="n1")
        registry.gauge("g").set(1.0, node="n1")
        registry.histogram("h", buckets=(1,)).observe(2.0, node="n1")
        assert registry.collect() == []
        assert ticks == []  # the clock is never consulted while disabled
