"""EXT-PARTITION — Section 2: the primary-component partition model.

"Network partitioning faults are handled by the underlying group
communication system, which uses a primary component model to handle
network partitioning and remerging, i.e., only the primary component
survives a network partition."

This benchmark partitions one replica away from a running timestamped
service, verifies that (a) the majority keeps serving a monotone group
clock, (b) the minority suspends (a client stranded with it gets no
answers), and (c) after the heal the minority member rejoins through a
fresh state transfer and answers consistently again.
"""

from repro.analysis import format_table
from repro.workloads import run_partition_cycle


def test_partition_primary_component(benchmark, report):
    seeds = range(400, 405)
    outcomes = benchmark.pedantic(
        lambda: [run_partition_cycle(seed) for seed in seeds],
        rounds=1,
        iterations=1,
    )

    report.title(
        "partition_primary",
        "EXT-PARTITION  Primary-component behaviour across a partition "
        "and remerge (5 seeds)",
    )
    rows = [
        [
            o["seed"],
            "yes" if o["minority_suspended"] else "NO",
            "yes" if o["monotone"] else "NO",
            f"{o['minority_froze_at']} -> {o['rejoined_count']}"
            f" (majority {o['majority_count']})",
            "yes" if o["rejoined_consistent"] else "NO",
        ]
        for o in outcomes
    ]
    report.table(
        format_table(
            ["seed", "minority suspended", "clock monotone",
             "state frozen -> caught up", "rejoined consistent"],
            rows,
        )
    )
    report.line("paper: only the primary component survives; the group "
                "clock and replica state stay consistent through "
                "partitioning and remerging.")

    for outcome in outcomes:
        assert outcome["minority_suspended"]
        assert outcome["monotone"]
        assert outcome["rejoined_ready"]
        assert outcome["rejoined_count"] == outcome["majority_count"]
        assert outcome["rejoined_consistent"]
