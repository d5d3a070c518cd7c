"""EXT-SHARD — aggregate throughput over sharded time domains.

One CCS group caps near its round rate (EXT-THROUGHPUT), so
``repro.shard`` runs N independent groups of three replicas behind a
session router, and a gradient overlay bounds the skew between them.
The N-shard fleet runs at the same per-shard population (8 closed-loop
workers per shard) as a single-shard baseline, and the invariant oracle
judges every reply and every shard summary.

Quick scale is CI's gate (3 shards x 0.3 s); ``REPRO_FULL=1`` is the
EXT-SHARD row in EXPERIMENTS.md (4 shards x 0.5 s).

Expected shape: shards share nothing but the overlay's summaries, so
aggregate ops/s grows near-linearly with N.
"""

from repro.analysis import format_records
from repro.workloads import run_loadgen_sharded


def test_shard_scaling(benchmark, report, scale):
    shards, duration_s = scale["shards"], scale["shard_duration_s"]
    concurrency = 8  # per shard
    common = dict(concurrency=concurrency, duration_s=duration_s, seed=0)

    single, sharded = benchmark.pedantic(
        lambda: (run_loadgen_sharded(shards=1, **common),
                 run_loadgen_sharded(shards=shards, **common)),
        rounds=1, iterations=1)
    scaling = round(sharded.ops_per_s / single.ops_per_s, 2)
    envelope = sharded.extra["skew_envelope"]
    oracle = sharded.extra["oracle"]
    per_shard = sharded.extra["per_shard"]

    report.title(
        "shard_scaling",
        f"EXT-SHARD  {shards} shards x 3 replicas, {concurrency} "
        f"workers/shard x {duration_s:.2f} s",
    )
    report.table(format_records(
        [("population", "population", ""), ("shards", "shards", ""),
         ("completed", "completed", ""), ("ops/s", "ops_per_s", ".0f"),
         ("p50 us", "p50_us", ".0f"), ("p99 us", "p99_us", ".0f")],
        [dict(single.to_dict(), population="single-shard", shards="-"),
         *(dict(row, population=f"shard {shard}", shards=shards)
           for shard, row in per_shard.items()),
         dict(sharded.to_dict(), population="aggregate")]))
    report.line(f"aggregate scaling vs single shard: x{scaling:.2f}")
    report.line(f"skew envelope (post-warmup, {envelope.get('samples', 0)} "
                f"samples): max inter-shard {envelope.get('max_skew_us', 0)} "
                f"us, max ring-hop {envelope.get('max_hop_skew_us', 0)} us")
    report.line(f"oracle: {'OK' if oracle['ok'] else 'VIOLATIONS'} "
                f"({oracle['replies_checked']} replies, "
                f"{oracle['shard_summaries_checked']} summaries checked)")

    assert oracle["ok"], oracle["violations"]
    assert envelope.get("samples", 0) > 0, "no post-warmup envelope samples"
    assert len(per_shard) == shards, "some shards served no calls"
    assert sharded.errors == 0, f"{sharded.errors} client calls failed"
    assert scaling >= 0.6 * shards, f"scaling x{scaling:.2f} below 0.6 x N"
