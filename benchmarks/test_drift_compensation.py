"""EXT-DRIFT — Section 3.3: drift-compensation strategy ablation.

The group clock drifts slow relative to real time (Figure 6(c)).  The
paper sketches two counter-measures: adding a *mean delay* to the offset
every round, and steering a small proportion of the difference to an
external reference (NTP/GPS) into each proposal.

This benchmark runs the Figure 6 workload under all three strategies and
reports the residual drift.

Expected shape: uncompensated drift is strongly negative; mean-delay
compensation cancels most of it; reference steering removes long-term
drift almost entirely.
"""

from repro.analysis import format_table
from repro.workloads import run_drift_ablation


def test_drift_compensation_ablation(benchmark, scale, report):
    rounds = scale["drift_rounds"]
    results, mean_delay = benchmark.pedantic(
        lambda: run_drift_ablation(rounds=rounds, seed=17),
        rounds=1,
        iterations=1,
    )

    report.title(
        "drift_compensation",
        f"EXT-DRIFT  Drift compensation ablation ({rounds} rounds)",
    )
    rows = []
    for name, result in results.items():
        series = next(iter(result.series.values()))
        final_lag_us = (
            series.normalized_group()[-1] - series.normalized_physical()[-1]
        )
        rows.append(
            [
                name,
                f"{result.group_drift_ppm() / 1e4:+.2f}%",
                f"{final_lag_us / 1000:+.1f}",
            ]
        )
    report.table(
        format_table(
            ["strategy", "drift vs real time", "final lag vs pc (ms)"],
            rows,
        )
    )
    report.line(f"calibrated mean per-round delay: {mean_delay} us")
    report.line(
        "paper: compensation 'can significantly reduce the drift but is "
        "necessarily only approximate'; reference steering 'has no drift'."
    )

    none_ppm = results["none"].group_drift_ppm()
    mean_ppm = results["mean-delay"].group_drift_ppm()
    steer_ppm = results["reference-steering"].group_drift_ppm()
    assert none_ppm < -1_000
    assert abs(mean_ppm) < 0.5 * abs(none_ppm)
    assert abs(steer_ppm) < 0.2 * abs(none_ppm)
