"""Tests for the experiment CLI."""

import socket

import pytest

from repro import obs
from repro.cli import COMMANDS, FIGURES, build_parser, main
from repro.net.daemon import NodeDaemon
from repro.net.testbed import LiveTestbed
from repro.obs import export


class TestParser:
    def test_requires_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["flux-capacitor"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig", "fig5"])
        assert args.target == "fig5"
        assert args.rounds == 500
        assert args.seeds == 6
        assert args.seed == 0
        assert args.metrics is None
        assert args.trace is False

    def test_observability_flags(self):
        args = build_parser().parse_args(
            ["fig", "ccs", "--metrics", "out.jsonl", "--trace"])
        assert args.metrics == "out.jsonl"
        assert args.trace is True

    @pytest.mark.parametrize("command", ["fig1", "ccs", "all", "metrics"])
    def test_figures_are_not_top_level_commands(self, command, capsys):
        with pytest.raises(SystemExit) as exited:
            main([command])
        assert exited.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["fig"], " | ".join([*FIGURES, "all"])),
        (["fig", "fig7"], " | ".join([*FIGURES, "all"])),
        (["serve"], "serve requires --node"),
        (["call"], "call requires --connect"),
        (["chaos"], "chaos requires --scenario"),
        (["trace"], "trace requires --shards"),
    ], ids=["fig", "fig-fig7", "serve", "call", "chaos", "trace"])
    def test_a_missing_or_unknown_target_is_a_usage_error(
            self, argv, message, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fig", "fig5", "--rounds", "0"],
        ["fig", "fig6", "--rounds", "-3"],
        ["fig", "failover", "--seeds", "0"],
        ["fig", "ccs", "--rounds", "many"],
    ], ids=["fig5-rounds-0", "fig6-rounds-neg", "failover-seeds-0",
            "ccs-rounds-text"])
    def test_sizes_must_be_positive(self, argv, monkeypatch, capsys):
        # A usage error before any workload runs, not a traceback out of
        # an empty sample.
        monkeypatch.setitem(FIGURES, argv[1], pytest.fail)
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert "not a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["control", "rolling-restart", "--nodes", "0"], "integer"),
        (["chaos", "--scenario", "s.json", "--clients", "0"], "integer"),
        (["chaos", "--scenario", "s.json", "--duration", "0"], "duration"),
        (["call", "--connect", "127.0.0.1:9", "--calls", "0"], "integer"),
        (["call", "--connect", "127.0.0.1:9", "--expect", "-1"], "integer"),
        (["call", "--connect", "127.0.0.1:9", "--timeout", "0"], "duration"),
        (["call", "--connect", "127.0.0.1:9", "--timeout", "nan"],
         "duration"),
    ], ids=["control-nodes-0", "chaos-clients-0", "chaos-duration-0",
            "call-calls-0", "call-expect-neg", "call-timeout-0",
            "call-timeout-nan"])
    def test_live_sizes_and_durations_must_be_positive(
            self, argv, message, monkeypatch, capsys):
        # Otherwise an empty run: a verdict with no steps, an oracle
        # violation for load that never ran, a call never made.
        monkeypatch.setitem(COMMANDS, argv[0], pytest.fail)
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        assert f"not a positive {message}" in capsys.readouterr().err


class TestServe:
    def test_a_drift_that_stops_the_clock_is_refused(
            self, monkeypatch, capsys):
        # -1e6 ppm and below would freeze (or reverse) the clock; the
        # clock's own check refuses it and the bed's sockets are closed.
        closed = []
        shutdown = LiveTestbed.shutdown

        def recording_shutdown(bed):
            closed.append(bed)
            shutdown(bed)

        monkeypatch.setattr(LiveTestbed, "shutdown", recording_shutdown)
        monkeypatch.setattr(NodeDaemon, "serve_forever", pytest.fail)
        assert main(["serve", "--node", "n0", "--peers", "n0=127.0.0.1:0",
                     "--clock-drift-ppm", "-2000000"]) == 2
        assert "serve: drift must keep the clock rate positive" in (
            capsys.readouterr().err)
        assert len(closed) == 1


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


#: Figure -> (extra arguments, substrings its report must contain).
FIGURE_CHECKS = {
    "fig1": ([], ["FIG1", "consistent time service"]),
    "fig5": (["--rounds", "60"], ["with CTS", "overhead"]),
    "ccs": (["--rounds", "60"], ["TAB-CCS", "rounds="]),
    "fig6": (["--rounds", "60"], ["synchronizer totals", "drift"]),
    "failover": (["--seeds", "2"], ["primary-backup", "cts"]),
    "drift": (["--rounds", "120"], ["mean-delay", "reference steering"]),
    "recovery": ([], ["monotone across join:   True"]),
    "partition": ([], ["suspended: True",
                       "clock monotone through the cycle: True"]),
    "scale": ([], ["EXT-SCALE", "p50 latency"]),
}


class TestCommands:
    @pytest.mark.parametrize("name", list(FIGURES))
    def test_figure(self, name, capsys):
        extra, expected = FIGURE_CHECKS[name]
        assert main(["fig", name, *extra]) == 0
        out = capsys.readouterr().out
        for text in expected:
            assert text in out


@pytest.fixture
def buses(monkeypatch):
    """Every telemetry bus the CLI or a bed's cluster builds, in order."""
    built = []

    class Recorded(obs.Bus):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr("repro.obs.Bus", Recorded)
    monkeypatch.setattr("repro.sim.cluster.Bus", Recorded)
    return built


class TestObservability:
    def test_metrics_command_cross_check_passes(self, tmp_path, capsys):
        assert main(["fig", "ccs", "--rounds", "60",
                     "--metrics", str(tmp_path / "obs.jsonl")]) == 0
        out = capsys.readouterr().out
        assert "OBS-SMOKE" in out
        assert "FAIL" not in out
        assert "round spans:" in out

    def test_an_empty_family_fails_the_check_and_is_named(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setitem(FIGURES, "ccs", lambda args: None)
        assert main(["fig", "ccs", "--metrics",
                     str(tmp_path / "obs.jsonl")]) == 1
        out = capsys.readouterr().out
        assert "FAIL: counter family ccs_rounds_total is empty" in out
        assert "FAIL: no round spans were assembled" in out

    def test_metrics_flag_writes_jsonl_and_prometheus(self, tmp_path, capsys,
                                                      buses):
        target = tmp_path / "ccs.jsonl"
        assert main(["fig", "ccs", "--rounds", "40",
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
        # One bus for the command's beds, switched back off after the
        # export.
        (bus,) = buses
        assert not bus.metrics.enabled and not bus.tracer.enabled

    def test_metrics_flag_fails_fast_on_bad_path(self, capsys):
        # An unusable export path must be rejected BEFORE the experiment
        # runs, not crash after wasting the whole run.
        with pytest.raises(SystemExit):
            main(["fig", "ccs", "--metrics", ""])
        assert "--metrics" in capsys.readouterr().err

    def test_trace_flag_streams_to_stderr(self, capsys):
        assert main(["fig", "recovery", "--trace"]) == 0
        captured = capsys.readouterr()
        assert "membership.install" in captured.err
        assert "membership.install" not in captured.out

    def test_disabled_by_default_records_nothing(self, capsys, buses):
        main(["fig", "ccs", "--rounds", "30"])
        capsys.readouterr()
        # Each bed kept its own bus, and none of them recorded.
        assert buses
        for bus in buses:
            counter = bus.metrics.get("ccs_rounds_total")
            assert counter is not None
            assert counter.total() == 0
            assert not bus.tracer.enabled


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
