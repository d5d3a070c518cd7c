"""EXT-THROUGHPUT — the capacity cost of the group clock.

Not measured in the paper, but implied by its design: every clock
operation is one totally-ordered round, and rounds on a thread are
serialized, so a clock-reading service's throughput is bounded by the
round time (a fraction of a token rotation once proposals pipeline into
consecutive token visits), *not* by CPU speed.

Expected shape: without the CTS, latency stays flat far beyond the rates
measured here; with the CTS, latency explodes (queueing) once the
offered rate crosses the round-rate capacity of roughly
1 / (inter-visit gap + delivery) ≈ 10-15 k ops/s on the calibrated ring.
"""

from repro.analysis import format_table
from repro.workloads import (
    append_run,
    comparison_run,
    run_loadgen_comparison,
    run_throughput_sweep,
)

RATES = [1_000, 4_000, 8_000, 12_000, 20_000]


def test_throughput_capacity(benchmark, report):
    # Per-operation rounds: the paper-implied capacity ceiling.  (The
    # default coalesced mode absorbs these rates — measured separately
    # in test_coalescing_trajectory.)
    def sweep_both():
        return {
            source: run_throughput_sweep(
                RATES, time_source=source, duration_s=0.3, seed=2,
                coalesce=False,
            )
            for source in ("local", "cts")
        }

    results = benchmark.pedantic(sweep_both, rounds=1, iterations=1)

    report.title(
        "throughput",
        "EXT-THROUGHPUT  Open-loop offered rate vs mean latency "
        "(0.3 s per point)",
    )
    rows = []
    for rate in RATES:
        local = results["local"][rate]
        cts = results["cts"][rate]
        rows.append(
            [
                rate,
                f"{local.mean_us:.0f}",
                f"{cts.mean_us:.0f}",
            ]
        )
    report.table(
        format_table(
            ["offered ops/s", "latency w/o CTS (us)", "latency w/ CTS (us)"],
            rows,
        )
    )

    base_local = results["local"][RATES[0]].mean_us
    base_cts = results["cts"][RATES[0]].mean_us
    top_local = results["local"][RATES[-1]].mean_us
    top_cts = results["cts"][RATES[-1]].mean_us
    report.line(
        f"at {RATES[-1]} ops/s: local latency x{top_local / base_local:.1f} "
        f"vs unloaded; CTS latency x{top_cts / base_cts:.0f}"
    )
    report.line("claim: the group clock caps throughput at the CCS round "
                "rate; raw clocks are CPU-bound far beyond it.")

    # Without CTS the service absorbs the top rate (mild latency growth).
    assert top_local < 3 * base_local
    # With CTS the top rate is far past saturation: queueing blow-up.
    assert top_cts > 20 * base_cts
    # But at moderate rates the CTS keeps up fine.
    assert results["cts"][4_000].mean_us < 3 * base_cts


def test_coalescing_trajectory(benchmark, report, tmp_path):
    """Closed-loop coalesced vs per-op throughput, as a trajectory entry.

    The entry is appended to a trajectory under ``tmp_path`` — the
    committed ``BENCH_throughput.json`` at the repo root is the
    cost-model record and a benchmark run leaves it alone (``repro
    loadgen --bench-json PATH`` is the way to add to it on purpose).
    """
    concurrency = 16

    def compare():
        return run_loadgen_comparison(
            concurrency=concurrency, duration_s=0.3, seed=0,
            fast_path=True,
        )

    results = benchmark.pedantic(compare, rounds=1, iterations=1)
    per_op = results["per-op-rounds"]
    amortized = results["coalesced+fast-path"]
    speedup = amortized.ops_per_s / per_op.ops_per_s

    report.title(
        "throughput_coalescing",
        f"EXT-COALESCE  Closed loop, {concurrency} workers x 0.3 s",
    )
    rows = [
        [r.mode, f"{r.ops_per_s:.0f}", f"{r.p50_us:.0f}",
         f"{r.p99_us:.0f}", f"{r.extra['ccs_per_op']:.3f}",
         r.extra["fast_path_hits"]]
        for r in results.values()
    ]
    report.table(format_table(
        ["mode", "ops/s", "p50 us", "p99 us", "CCS/op", "fast hits"],
        rows,
    ))
    report.line(f"speedup vs per-op rounds: x{speedup:.2f}")
    report.line("claim: concurrent operations share rounds, so throughput "
                "scales with concurrency instead of the round rate.")

    trajectory = append_run(tmp_path / "BENCH_throughput.json",
                            comparison_run(results.values()))
    assert trajectory["runs"][-1]["speedup_vs_per_op"] == round(speedup, 2)

    # Acceptance: round amortization + fast path is >= 3x per-op rounds
    # at this concurrency, with a visibly cheaper wire bill.
    assert speedup >= 3.0
    assert amortized.extra["ccs_per_op"] < 0.5 < per_op.extra["ccs_per_op"]
    assert amortized.extra["ops_coalesced"] > 0
    assert amortized.extra["fast_path_hits"] > 0
