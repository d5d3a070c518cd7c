"""FIG1 — Figure 1 (motivation): clock-related operations executed by
different replicas at different real times return inconsistent values.

The paper's Figure 1 is conceptual; this benchmark quantifies it: the
same logical `gettimeofday()` operation is executed by three replicas
under (a) raw local clocks, (b) NTP-disciplined clocks, and (c) the
consistent time service, and we measure how far the three replicas'
answers diverge per operation.

Expected shape: local clocks diverge by seconds (unsynchronized epochs);
NTP-disciplined clocks still diverge by tens-to-hundreds of
microseconds (the intrinsic event-triggered problem, however accurate
the synchronization); the CTS diverges by exactly zero.
"""

from repro.analysis import format_table, summarize
from repro.workloads import measure_divergence


def test_fig1_inconsistency(benchmark, report):
    def run_all():
        return {
            "local clocks": measure_divergence("local", seed=11),
            "NTP-disciplined": measure_divergence("ntp", seed=11),
            "consistent time service": measure_divergence("cts", seed=11),
        }

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)

    report.title(
        "fig1_inconsistency",
        "FIG1  Divergence of replica clock readings for the same logical "
        "operation (60 operations)",
    )
    rows = []
    for name, divergences in results.items():
        s = summarize(divergences)
        rows.append(
            [
                name,
                f"{s.mean:.1f}",
                f"{s.maximum:.0f}",
                f"{sum(1 for d in divergences if d > 0)}/{s.count}",
            ]
        )
    report.table(
        format_table(
            ["clock source", "mean divergence us", "max us", "ops divergent"],
            rows,
        )
    )
    report.line(
        "paper (Figure 1 argument): software clock synchronization cannot "
        "make replica reads consistent; the CTS can."
    )

    local, ntp, cts = (
        results["local clocks"],
        results["NTP-disciplined"],
        results["consistent time service"],
    )
    assert max(cts) == 0, "CTS replicas must agree exactly"
    assert min(local) > 100_000, "unsynchronized clocks diverge by >100 ms"
    assert 0 < sum(ntp) / len(ntp) < 10_000, "NTP: small but nonzero divergence"


def test_fig1_ntp_still_divergent_when_tight(benchmark, report):
    """Even with an aggressively tuned discipline (sub-ms accuracy), the
    per-operation divergence does not vanish — the problem is intrinsic
    to event-triggered execution, not to synchronization quality."""
    divergences = benchmark.pedantic(
        lambda: measure_divergence("ntp", seed=13),
        rounds=1,
        iterations=1,
    )
    report.title(
        "fig1_ntp_divergence",
        "FIG1b  NTP-disciplined replicas still answer differently",
    )
    s = summarize(divergences)
    report.line(f"mean divergence: {s.mean:.1f} us, p90: {s.p90:.1f} us, "
                f"max: {s.maximum:.0f} us")
    divergent = sum(1 for d in divergences if d > 0)
    report.line(f"operations with divergent answers: {divergent}/{s.count}")
    assert divergent >= 0.9 * s.count
