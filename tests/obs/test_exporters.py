"""Tests for the JSONL, Prometheus and summary-table exporters."""

import io

import pytest

from repro import trace
from repro.obs import MetricsRegistry, RoundSpan, export


def populated_registry():
    registry = MetricsRegistry(clock=lambda: 1.5)
    registry.enable()
    registry.counter("requests_total", help="requests served").inc(3, node="n1")
    registry.gauge("offset_us", help="clock offset").set(-42.5, node="n2")
    hist = registry.histogram("latency_us", help="latency", buckets=(10, 100))
    hist.observe(5, node="n1")
    hist.observe(50, node="n1")
    hist.observe(500, node="n1")
    registry.disable()
    return registry


class TestJsonl:
    def test_missing_parent_directories_are_created(self, tmp_path):
        target = tmp_path / "out" / "run1" / "m.jsonl"
        assert export.write_jsonl(populated_registry(), target) == 3
        assert len(export.read_jsonl(target)) == 3

    def test_round_trip_through_a_file(self, tmp_path):
        registry = populated_registry()
        target = tmp_path / "dump.jsonl"
        written = export.write_jsonl(registry, target)
        records = export.read_jsonl(target)
        assert written == len(records) == 3
        by_name = {record["name"]: record for record in records}
        assert by_name["requests_total"]["value"] == 3.0
        assert by_name["requests_total"]["labels"] == {"node": "n1"}
        assert by_name["requests_total"]["t"] == 1.5
        assert by_name["offset_us"]["value"] == -42.5
        hist = by_name["latency_us"]
        assert hist["count"] == 3
        assert hist["sum"] == 555.0
        assert hist["buckets"] == [[10.0, 1], [100.0, 2], [float("inf"), 3]]

    def test_accepts_file_like_target(self):
        registry = populated_registry()
        buffer = io.StringIO()
        export.write_jsonl(registry, buffer)
        buffer.seek(0)
        assert len(export.read_jsonl(buffer)) == 3

    def test_garbage_lines_are_skipped_by_default(self, tmp_path):
        target = tmp_path / "dump.jsonl"
        target.write_text(
            '{"record": "metric", "name": "a", "value": 1}\n'
            "\n"
            '{"record": "metric", "name": "b", "va\n'  # truncated mid-line
            "not json at all\n"
            '{"record": "metric", "name": "c", "value": 3}\n')
        records = export.read_jsonl(target)
        assert [r["name"] for r in records] == ["a", "c"]

    def test_strict_mode_raises_on_the_first_bad_line(self, tmp_path):
        import json

        target = tmp_path / "dump.jsonl"
        target.write_text(
            '{"record": "metric", "name": "a", "value": 1}\n'
            "garbage\n")
        with pytest.raises(json.JSONDecodeError):
            export.read_jsonl(target, strict=True)

    def test_embeds_trace_events_and_spans(self, tmp_path):
        registry = populated_registry()
        events = [trace.TraceEvent("round.start", "n1",
                                   {"thread": "t0", "round": 1, "t": 0.5})]
        spans = [RoundSpan("n1", "t0", 1, started_at=0.5, completed_at=0.6)]
        target = tmp_path / "dump.jsonl"
        export.write_jsonl(registry, target, trace_events=events, spans=spans)
        records = export.read_jsonl(target)
        kinds = [record["record"] for record in records]
        assert kinds.count("metric") == 3
        assert kinds.count("trace") == 1
        assert kinds.count("span") == 1
        (span_record,) = [r for r in records if r["record"] == "span"]
        assert span_record["node"] == "n1"
        assert span_record["latency_us"] == pytest.approx(100000.0)
        (trace_record,) = [r for r in records if r["record"] == "trace"]
        assert trace_record["kind"] == "round.start"
        assert trace_record["round"] == 1


class TestPrometheusText:
    def test_counter_and_gauge_lines(self):
        text = export.prometheus_text(populated_registry())
        assert "# HELP requests_total requests served\n" in text
        assert "# TYPE requests_total counter\n" in text
        assert 'requests_total{node="n1"} 3\n' in text
        assert "# TYPE offset_us gauge\n" in text
        assert 'offset_us{node="n2"} -42.5\n' in text

    def test_histogram_exposition(self):
        text = export.prometheus_text(populated_registry())
        assert 'latency_us_bucket{le="10",node="n1"} 1\n' in text
        assert 'latency_us_bucket{le="100",node="n1"} 2\n' in text
        assert 'latency_us_bucket{le="+Inf",node="n1"} 3\n' in text
        assert 'latency_us_sum{node="n1"} 555\n' in text
        assert 'latency_us_count{node="n1"} 3\n' in text

    def test_empty_series_emit_no_header(self):
        registry = MetricsRegistry()
        registry.counter("unused_total", help="never incremented")
        assert export.prometheus_text(registry) == ""

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.enable()
        registry.counter("c").inc(name='quo"te\\slash')
        text = export.prometheus_text(registry)
        assert r'c{name="quo\"te\\slash"} 1' in text

    def test_newlines_in_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.enable()
        registry.counter("c").inc(name="line1\nline2")
        text = export.prometheus_text(registry)
        assert r'c{name="line1\nline2"} 1' in text
        # The rendered sample must stay on one physical line.
        (sample_line,) = [line for line in text.splitlines()
                          if line.startswith("c{")]
        assert sample_line == r'c{name="line1\nline2"} 1'


class TestSummaryTable:
    def test_lists_every_series(self):
        table = export.summary_table(populated_registry(), title="smoke")
        assert "smoke" in table
        assert "requests_total" in table
        assert "offset_us" in table
        assert "count=3" in table
        assert '{node="n1"}' in table

    def test_empty_registry(self):
        table = export.summary_table(MetricsRegistry(), title="empty")
        assert "no samples recorded" in table
