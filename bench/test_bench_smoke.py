"""Smoke tests of the benchmark harness.  Run with ``pytest bench/`` from
the repository root (not part of the tier-1 ``testpaths``)."""

import json
from pathlib import Path

import pytest

from bench import __main__ as cli
from bench.load import Ledger
from bench.probe import REFERENCE_NS, HostProbe
from bench.runner import run_traced
from bench.spec import (
    END_TO_END,
    LAYERS,
    PER_LAYER,
    RUN_SECONDS,
    WORKLOAD_BY_NAME,
    WORKLOADS,
)
from bench.tracing import layer_self_ns, load_spans
from bench.trial import Slice, window_metrics
from repro.rpc.messages import Result

ROOT = Path(__file__).resolve().parent.parent


def _contract_line(capsys, *argv):
    status = cli.main(list(argv))
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert status == 0
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    return line


@pytest.mark.parametrize("name", ["sim-rounds-c1", "live-closed-c16"])
def test_quick_run_emits_every_end_to_end_metric(capsys, name):
    line = _contract_line(capsys, "--workload", name, "--quick")
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m.name: m.unit for m in END_TO_END}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_traced_pass_emits_every_per_layer_metric(capsys):
    line = _contract_line(capsys, "--workload", "live-auth-c16",
                          "--trace", "1", "--seconds", "2")
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {
        m.name: m.unit for m in PER_LAYER}
    assert line["metrics"]["net.auth.self_share"]["value"] > 0


def test_planted_bad_replies_count_as_failed():
    ledger = Ledger(clients=1, deadline_s=0.25)
    ledger.reply(ledger.begin(0, due=0.0), Result(value=1_000), now=0.001)
    assert ledger.failed == 0 and ledger.floors == [1_000]
    # Not strictly above the floor the op carried.
    ledger.reply(ledger.begin(0, due=0.01), Result(value=1_000), now=0.011)
    # Correct value, but past the deadline.
    ledger.reply(ledger.begin(0, due=0.02), Result(value=2_000), now=0.28)
    # An error reply.
    ledger.reply(ledger.begin(0, due=0.03), Result(error="boom"), now=0.031)
    assert ledger.attempted == 4 and len(ledger.served) == 1
    assert dict(ledger.failures) == {"non-monotone": 1, "late": 1, "error": 1}


def test_durations_are_rescaled_to_the_reference_host():
    # Two slices of a second each; the host ran the second at half the
    # reference speed, so it served half the ops at twice the latency.
    slices = [Slice(1.0, 1.0, 0.9, REFERENCE_NS, served=100),
              Slice(2.0, 1.0, 0.9, 2 * REFERENCE_NS, served=50)]
    placed = [(0, 0.010)] * 100 + [(1, 0.020)] * 50

    def metrics(name, rescale=True):
        return window_metrics(WORKLOAD_BY_NAME[name], 2.0, slices, placed,
                              rescale)

    raw = metrics("live-closed-c16", rescale=False)
    assert raw["ops_per_s"] == pytest.approx(75)
    assert raw["mean_us"] == pytest.approx(1e6 * (100 * 0.01 + 50 * 0.02) / 150)
    ref = metrics("live-closed-c16")
    assert ref["ops_per_s"] == pytest.approx(100)
    assert ref["p50_us"] == ref["mean_us"] == pytest.approx(10_000)
    assert ref["cpu_ms_per_op"] == pytest.approx(9.0)
    # A live open loop is offered its rate whatever the host's speed;
    # only its latencies are rescaled.  Simulated time never is.
    opened = metrics("live-open-r300")
    assert opened["ops_per_s"] == pytest.approx(75)
    assert opened["cpu_ms_per_op"] == pytest.approx(12.0)
    assert opened["mean_us"] == pytest.approx(10_000)
    sim = metrics("sim-closed-c16")
    assert sim["ops_per_s"] == pytest.approx(75)
    assert sim["mean_us"] == pytest.approx(raw["mean_us"])
    assert sim["wall_ms_per_op"] == pytest.approx(10.0)


def test_host_probe_reads_a_plausible_speed():
    probe = HostProbe()
    try:
        assert 0.05 * REFERENCE_NS < probe.read() < 50 * REFERENCE_NS
    finally:
        probe.close()


def test_span_self_times_fit_in_the_window():
    run = run_traced(WORKLOAD_BY_NAME["sim-failover"], seed=3, seconds=2.0)
    assert run.failed == 0
    header, spans = load_spans(run.spans_path)
    self_ns = layer_self_ns(header["names"], spans["name_id"],
                            spans["parent"], spans["start_ns"],
                            spans["end_ns"])
    assert 0 < sum(self_ns.values()) <= header["window_wall_ns"]
    shares = [run.metrics[f"{layer}.self_share"] for layer in LAYERS]
    assert all(share >= 0 for share in shares) and sum(shares) <= 1.0
    # The fault ran: the crash reformed the ring and the replica was
    # recovered inside the window.
    assert run.metrics["totem.membership_changes"] > 0
    assert run.metrics["replication.recovery_us"] > 0


def test_benchmark_json_matches_the_spec():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert declared["command"] == ["python3", "-m", "bench"]
    assert declared["paths"] == ["bench"]
    assert declared["run_seconds"] == RUN_SECONDS
    assert declared["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound} for m in END_TO_END]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in PER_LAYER]
