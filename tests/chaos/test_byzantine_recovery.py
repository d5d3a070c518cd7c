"""Self-stabilizing recovery: scrambled replica state must be repaired
within a bounded number of rounds.

``corrupt_time_state`` models a transient fault hitting exactly the
state the stabilization path claims to repair (clock offset, round
counters, duplicate-detection watermarks, the fast-path floor).  The
documented guarantee — see docs/algorithm.md — is that a corrupted
replica repairs its state within ``ROUND_BOUND`` completed rounds of
live traffic, and its commits never diverge from the correct replicas'
in the meantime.  These tests pin that bound; the oracle-window tests
below pin the matching exclusion semantics of
``InvariantOracle.note_corruption``.
"""

from collections import defaultdict

from repro import obs, trace
from repro.chaos.oracle import InvariantOracle

from support import ClockApp, make_testbed, read_until  # noqa: E402 (tests/ on sys.path via conftest)

#: The documented self-stabilization bound: a corrupted replica must
#: have repaired its state within this many completed rounds.  Changing
#: it is an API change — update docs/algorithm.md and the oracle's
#: default ``round_bound`` together.
ROUND_BOUND = 2

REPLICAS = ["n1", "n2", "n3", "n4"]


def build_bed(seed, bus=None):
    bed = make_testbed(seed=seed, num_nodes=5, epoch_spread_s=30.0, obs=bus)
    bed.deploy("svc", ClockApp, REPLICAS, style="active",
               time_source="cts", byzantine=True)
    client = bed.client("n0")
    bed.start(settle=0.3)
    return bed, lambda n: read_until(bed, client, "svc", n)


class TestReconvergence:
    def test_state_repaired_within_round_bound(self):
        bed, call_some = build_bed(seed=11)
        with bed.obs.tracer.capture(["round.complete",
                                     "state.repaired"]) as events:
            values = call_some(5)
            mark = len(events)
            details = bed.corrupt_state("n2", seed=42)
            values += call_some(12)
            bed.run(0.2)

        # The scrambler actually hit the replica (seeded, so this is
        # stable across runs).
        assert details["svc"]["offset_bump_us"] > 0
        assert details["svc"]["round_bump"] > 0

        post = events[mark:]
        repairs = [i for i, e in enumerate(post)
                   if e.kind == "state.repaired" and e.node == "n2"]
        assert repairs, "no stabilization event after corruption"
        # Every repair landed within ROUND_BOUND completed rounds of the
        # corruption — the pinned reconvergence bound.
        rounds_before_last_repair = sum(
            1 for e in post[:repairs[-1]]
            if e.kind == "round.complete" and e.node == "n2")
        assert rounds_before_last_repair <= ROUND_BOUND

        # The corrupted replica kept making progress afterwards...
        rounds_after = sum(1 for e in post
                           if e.kind == "round.complete" and e.node == "n2")
        assert rounds_after > ROUND_BOUND
        # ...its commits never diverged from the correct replicas'...
        commits = defaultdict(dict)
        for e in post:
            if e.kind == "round.complete":
                key = (e.fields["thread"], e.fields["round"])
                commits[key][e.node] = e.fields["group_us"]
        divergent = [k for k, per_node in commits.items()
                     if len(set(per_node.values())) > 1]
        assert divergent == []
        # ...and the client never saw the corruption.
        assert len(values) >= 15
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_stabilization_counters_account_for_repairs(self):
        bus = obs.Bus()
        with bus.metrics.session():
            bed, call_some = build_bed(seed=11, bus=bus)
            call_some(5)
            bed.corrupt_state("n2", seed=42)
            call_some(12)
            bed.run(0.2)
        service = bed.replicas("svc")["n2"].time_source
        # Watermark, round-counter and floor repairs each count under
        # their own name, and the {what} series read those counts.
        assert service.stats.stabilizations == {
            "watermark": 1, "round-counter": 1, "floors": 1}
        repairs = bus.metrics.get("cts_stabilizations_total")
        for what, count in service.stats.stabilizations.items():
            assert repairs.value(node="n2", what=what) == count
        untouched = bed.replicas("svc")["n3"].time_source
        assert untouched.stats.stabilizations == {}

    def test_corruption_is_seeded_and_reproducible(self):
        bed_a, call_a = build_bed(seed=11)
        call_a(3)
        details_a = bed_a.corrupt_state("n2", seed=99)
        bed_b, call_b = build_bed(seed=11)
        call_b(3)
        details_b = bed_b.corrupt_state("n2", seed=99)
        assert details_a == details_b


class TestOracleCorruptionWindow:
    """``note_corruption`` opens a repair window of exactly
    ``round_bound`` rounds: divergence inside is excluded, divergence
    after is flagged, and a replica that never resumes completing rounds
    is flagged as failing to stabilize."""

    def test_divergence_inside_window_excluded(self):
        tracer = trace.Tracer()
        oracle = InvariantOracle().attach(tracer)
        try:
            oracle.note_corruption("n1", round_bound=ROUND_BOUND)
            for rnd in (1, 2):  # rounds 1..ROUND_BOUND: still repairing
                tracer.emit("round.complete", "n0",
                            thread="t", round=rnd, group_us=500 * rnd)
                tracer.emit("round.complete", "n1",
                            thread="t", round=rnd, group_us=500 * rnd + 7)
        finally:
            oracle.detach()
        assert oracle.ok

    def test_divergence_after_window_flagged(self):
        tracer = trace.Tracer()
        oracle = InvariantOracle().attach(tracer)
        try:
            oracle.note_corruption("n1", round_bound=ROUND_BOUND)
            for rnd in (1, 2, 3):  # round 3 is past the window
                tracer.emit("round.complete", "n0",
                            thread="t", round=rnd, group_us=500 * rnd)
                tracer.emit("round.complete", "n1",
                            thread="t", round=rnd, group_us=500 * rnd + 7)
        finally:
            oracle.detach()
        assert [v.check for v in oracle.violations] == ["agreement"]
        assert oracle.violations[0].subject == "n1"

    def test_agreement_after_window_passes_when_converged(self):
        tracer = trace.Tracer()
        oracle = InvariantOracle().attach(tracer)
        try:
            oracle.note_corruption("n1", round_bound=ROUND_BOUND)
            tracer.emit("round.complete", "n1",
                        thread="t", round=1, group_us=999_999)  # repairing
            for rnd in (2, 3, 4):
                tracer.emit("round.complete", "n0",
                            thread="t", round=rnd, group_us=500 * rnd)
                tracer.emit("round.complete", "n1",
                            thread="t", round=rnd, group_us=500 * rnd)
        finally:
            oracle.detach()
        assert oracle.ok

    def test_never_reconverging_replica_flagged_at_finish(self):
        tracer = trace.Tracer()
        oracle = InvariantOracle().attach(tracer)
        try:
            oracle.note_corruption("n1", round_bound=ROUND_BOUND)
            # n1 completes only ROUND_BOUND rounds after corruption: it
            # never provably re-entered agreement.
            for rnd in (1, 2):
                tracer.emit("round.complete", "n1",
                            thread="t", round=rnd, group_us=500 * rnd)
        finally:
            pass
        oracle.finish()  # detaches
        assert "stabilization" in [v.check for v in oracle.violations]

    def test_report_lists_corrupted_nodes(self):
        oracle = InvariantOracle()
        oracle.note_corruption("n2", round_bound=ROUND_BOUND)
        assert oracle.report()["corrupted"] == ["n2"]
