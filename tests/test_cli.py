"""Tests for the experiment CLI."""

import socket

import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.obs import export


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flux-capacitor"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig5"])
        assert args.rounds == 500
        assert args.seed == 0
        assert args.metrics is None
        assert args.trace is False

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["ccs", "--metrics", "out.jsonl", "--trace"])
        assert args.metrics == "out.jsonl"
        assert args.trace is True


class TestLiveAddresses:
    """A port outside 0-65535 is a usage error, raised before any socket
    is opened (bind and sendto would raise OverflowError)."""

    @pytest.fixture(autouse=True)
    def no_sockets(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a socket was opened")

        monkeypatch.setattr(socket, "socket", refuse)

    def test_serve_rejects_an_out_of_range_port(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["serve", "--node", "n0", "--peers",
                  "n0=127.0.0.1:9000,n1=127.0.0.1:70000"])
        assert exited.value.code == 2
        assert ("bad peer entry 'n1=127.0.0.1:70000'"
                in capsys.readouterr().err)

    def test_call_rejects_an_out_of_range_port(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["call", "--connect", "127.0.0.1:70000"])
        assert exited.value.code == 2
        assert "bad address '127.0.0.1:70000'" in capsys.readouterr().err


class TestCommands:
    def test_ccs_command(self, capsys):
        assert main(["ccs", "--rounds", "60"]) == 0
        out = capsys.readouterr().out
        assert "TAB-CCS" in out
        assert "rounds=" in out

    def test_fig5_command(self, capsys):
        assert main(["fig5", "--rounds", "60"]) == 0
        out = capsys.readouterr().out
        assert "with CTS" in out
        assert "overhead" in out

    def test_fig6_command(self, capsys):
        assert main(["fig6", "--rounds", "60"]) == 0
        out = capsys.readouterr().out
        assert "synchronizer totals" in out
        assert "drift" in out

    def test_recovery_command(self, capsys):
        assert main(["recovery"]) == 0
        out = capsys.readouterr().out
        assert "monotone across join:   True" in out

    def test_failover_command(self, capsys):
        assert main(["failover", "--seeds", "2"]) == 0
        out = capsys.readouterr().out
        assert "primary-backup" in out
        assert "cts" in out

    def test_drift_command(self, capsys):
        assert main(["drift", "--rounds", "120"]) == 0
        out = capsys.readouterr().out
        assert "mean-delay" in out
        assert "reference steering" in out

    def test_partition_command(self, capsys):
        assert main(["partition"]) == 0
        out = capsys.readouterr().out
        assert "suspended: True" in out
        assert "clock monotone through the cycle: True" in out

    def test_scale_command(self, capsys):
        assert main(["scale"]) == 0
        out = capsys.readouterr().out
        assert "EXT-SCALE" in out
        assert "p50 latency" in out


class TestObservability:
    def test_metrics_command_cross_check_passes(self, capsys):
        assert main(["metrics", "--rounds", "60"]) == 0
        out = capsys.readouterr().out
        assert "OBS-SMOKE" in out
        assert "MISMATCH" not in out
        assert "round spans:" in out

    def test_metrics_flag_writes_jsonl_and_prometheus(self, tmp_path, capsys):
        target = tmp_path / "ccs.jsonl"
        assert main(["ccs", "--rounds", "40",
                     "--metrics", str(target)]) == 0
        captured = capsys.readouterr()
        assert target.exists()
        prom = tmp_path / "ccs.prom"
        assert prom.exists()
        assert str(target) in captured.err

        records = export.read_jsonl(target)
        kinds = {record["record"] for record in records}
        assert kinds == {"metric", "trace", "span"}
        metric_names = {r["name"] for r in records
                        if r["record"] == "metric"}
        assert "ccs_sent_total" in metric_names
        assert "totem_tokens_forwarded_total" in metric_names
        spans = [r for r in records if r["record"] == "span"]
        assert spans and all(s["latency_us"] is not None for s in spans)

        text = prom.read_text()
        assert "# TYPE ccs_sent_total counter" in text
        assert 'cts_round_latency_us_bucket{le="+Inf"' in text
        # The registry is switched back off after the export.
        assert not obs.REGISTRY.enabled

    def test_metrics_flag_fails_fast_on_bad_path(self, capsys):
        # An unusable export path must be rejected BEFORE the experiment
        # runs, not crash after wasting the whole run.
        with pytest.raises(SystemExit):
            main(["ccs", "--metrics", ""])
        assert "--metrics" in capsys.readouterr().err

    def test_trace_flag_streams_to_stderr(self, capsys):
        assert main(["recovery", "--trace"]) == 0
        captured = capsys.readouterr()
        assert "membership.install" in captured.err
        assert "membership.install" not in captured.out

    def test_disabled_by_default_records_nothing(self, capsys):
        obs.REGISTRY.reset()  # clear residue from earlier enabled runs
        main(["ccs", "--rounds", "30"])
        capsys.readouterr()
        counter = obs.REGISTRY.get("ccs_rounds_total")
        assert counter is not None
        assert counter.total() == 0


class TestTraceCommand:
    def write_shards(self, directory):
        import json

        from repro.obs.crossnode import shard_path
        from tests.obs.test_crossnode import synthetic_op

        records = synthetic_op("feed00feed00feed")
        by_node = {}
        for record in records:
            by_node.setdefault(record["node"], []).append(record)
        for node, recs in by_node.items():
            shard_path(directory, node).write_text(
                "".join(json.dumps(r) + "\n" for r in recs))

    def test_renders_assembled_timelines(self, tmp_path, capsys):
        self.write_shards(tmp_path)
        assert main(["trace", "--shards", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert "feed00feed00feed" in captured.out
        assert "client.send@c0" in captured.out
        assert "reply.recv@c0" in captured.out

    def test_jsonl_mode_and_trace_id_filter(self, tmp_path, capsys):
        self.write_shards(tmp_path)
        assert main(["trace", "--shards", str(tmp_path),
                     "--trace-id", "feed00feed00feed", "--jsonl"]) == 0
        import json

        (line,) = capsys.readouterr().out.splitlines()
        timeline = json.loads(line)
        assert timeline["trace_id"] == "feed00feed00feed"
        assert timeline["complete"] is True

    def test_unknown_trace_id_fails(self, tmp_path, capsys):
        self.write_shards(tmp_path)
        assert main(["trace", "--shards", str(tmp_path),
                     "--trace-id", "dead"]) == 1
        capsys.readouterr()

    def test_missing_shard_dir_fails(self, tmp_path, capsys):
        assert main(["trace", "--shards", str(tmp_path / "nope")]) == 2
        capsys.readouterr()

    def test_empty_shard_dir_fails(self, tmp_path, capsys):
        assert main(["trace", "--shards", str(tmp_path)]) == 1
        capsys.readouterr()
