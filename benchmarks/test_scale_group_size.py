"""EXT-SCALE — group-size scaling (beyond the paper's 3-way setup).

The paper evaluates a three-way replicated server on a four-node ring.
A natural question for adopters: how do the group clock's costs scale
with the replication degree?  Two effects compound:

* the logical ring grows — token rotation time grows linearly (≈51 us
  per hop), stretching both the request path and the CCS circulation;
* more replicas compete per round — but duplicate suppression keeps the
  wire count at exactly one CCS message per round regardless of degree.

Expected shape: per-call latency grows roughly linearly with ring size;
wire CCS per round stays 1.
"""

from repro.analysis import format_table
from repro.workloads import run_at_size


def test_scale_with_group_size(benchmark, report):
    sizes = [2, 3, 4, 5, 6]

    results = benchmark.pedantic(
        lambda: {n: run_at_size(n) for n in sizes}, rounds=1, iterations=1
    )

    report.title(
        "scale_group_size",
        "EXT-SCALE  Cost of the group clock vs replication degree "
        "(150 calls each; ring size = replicas + 1 client node)",
    )
    rows = []
    for n in sizes:
        latency, transmitted, rounds = results[n]
        rows.append(
            [
                n,
                n + 1,
                f"{latency.p50:.0f}",
                f"{latency.p90:.0f}",
                f"{transmitted / rounds:.3f}",
            ]
        )
    report.table(
        format_table(
            ["replicas", "ring nodes", "p50 latency (us)",
             "p90 (us)", "wire CCS per round"],
            rows,
        )
    )
    report.line("claims: latency grows ~linearly with ring size; "
                "exactly one CCS message per round at every degree.")

    # Wire economy independent of degree.
    for n in sizes:
        _, transmitted, rounds = results[n]
        assert transmitted == rounds, (n, transmitted, rounds)
    # Latency grows with ring size (3 -> 6 replicas at least +40%).
    p50_small = results[3][0].p50
    p50_large = results[6][0].p50
    assert p50_large > 1.4 * p50_small
