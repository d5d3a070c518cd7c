"""InvariantOracle: each invariant class flags exactly when violated."""

from repro import trace
from repro.chaos.oracle import InvariantOracle
from repro.chaos.runner import JudgedRun

from support import ClockApp, call_n, make_testbed  # noqa: E402


def checks(oracle):
    return [v.check for v in oracle.violations]


class TestMonotonicity:
    def test_increasing_values_pass(self):
        oracle = InvariantOracle()
        for i, value in enumerate([100, 200, 300]):
            oracle.observe_reply("c0", value, wall_s=i * 1e-4)
        assert oracle.ok
        assert oracle.replies_checked == 3

    def test_rollback_flagged(self):
        oracle = InvariantOracle()
        oracle.observe_reply("c0", 200, wall_s=0.0)
        oracle.observe_reply("c0", 150, wall_s=0.001)
        assert checks(oracle) == ["monotonicity"]
        assert oracle.violations[0].subject == "c0"

    def test_repeat_flagged(self):
        oracle = InvariantOracle()
        oracle.observe_reply("c0", 200, wall_s=0.0)
        oracle.observe_reply("c0", 200, wall_s=0.001)
        assert checks(oracle) == ["monotonicity"]

    def test_clients_are_independent(self):
        oracle = InvariantOracle()
        oracle.observe_reply("c0", 200, wall_s=0.0)
        oracle.observe_reply("c1", 100, wall_s=0.001)  # lower, other client
        assert oracle.ok


class TestStaleness:
    def test_wall_rate_advance_passes(self):
        oracle = InvariantOracle(staleness_budget_us=2_000)
        oracle.observe_reply("c0", 1_000_000, wall_s=10.0, rtt_s=0.001)
        # 50 ms later the value advanced ~50 ms: inside every slack term.
        oracle.observe_reply("c0", 1_050_500, wall_s=10.05, rtt_s=0.001)
        assert oracle.ok

    def test_value_jumping_ahead_of_wall_flagged(self):
        oracle = InvariantOracle(staleness_budget_us=2_000)
        oracle.observe_reply("c0", 1_000_000, wall_s=10.0)
        # 10 ms of wall time, 5 s of value time: far past any slack.
        oracle.observe_reply("c0", 6_000_000, wall_s=10.01)
        assert checks(oracle) == ["staleness"]

    def test_value_stalling_behind_wall_flagged(self):
        oracle = InvariantOracle(staleness_budget_us=2_000)
        oracle.observe_reply("c0", 1_000_000, wall_s=10.0)
        # 10 s of wall time, 1 us of value time: the clock stalled.
        oracle.observe_reply("c0", 1_000_001, wall_s=20.0)
        assert checks(oracle) == ["staleness"]

    def test_catchup_to_known_mapping_is_allowed(self):
        # Membership churn freezes rounds: served values drift behind
        # wall a little per call (inside the rtt slack), then the first
        # post-reformation round snaps time back to the mapping the
        # healthy phase established.  The snap is catch-up, not a
        # violation.
        oracle = InvariantOracle(staleness_budget_us=2_000)
        oracle.observe_reply("c0", 1_000_000, wall_s=10.0, rtt_s=0.005)
        wall, value = 10.0, 1_000_000
        for _ in range(10):  # lagging phase: 8 ms of value per 20 ms
            wall += 0.020
            value += 8_000
            oracle.observe_reply("c0", value, wall_s=wall, rtt_s=0.005)
        assert oracle.ok, oracle.violations
        wall += 0.020  # snap: the accumulated 120 ms lag is repaid
        oracle.observe_reply("c0", value + 140_000, wall_s=wall,
                             rtt_s=0.005)
        assert oracle.ok, oracle.violations
        assert oracle.catchups_allowed == 1

    def test_transient_lag_repaid_is_tolerated(self):
        oracle = InvariantOracle(staleness_budget_us=2_000)
        oracle.observe_reply("c0", 1_000_000, wall_s=10.0, rtt_s=0.001)
        oracle.observe_reply("c0", 1_050_000, wall_s=10.05, rtt_s=0.001)
        # Reconfiguration stall: 1 ms of value over 100 ms of wall —
        # staleness debt, tolerated while it stays shallow.
        oracle.observe_reply("c0", 1_051_000, wall_s=10.15, rtt_s=0.001)
        assert oracle.ok, oracle.violations
        assert oracle.stalls_tolerated == 1
        # The post-reformation snap repays the debt.
        oracle.observe_reply("c0", 1_201_000, wall_s=10.20, rtt_s=0.001)
        oracle.finish()
        assert oracle.ok, oracle.violations
        assert oracle.catchups_allowed == 1

    def test_unrepaid_lag_flags_at_finish(self):
        oracle = InvariantOracle(staleness_budget_us=2_000)
        oracle.observe_reply("c0", 1_000_000, wall_s=10.0, rtt_s=0.001)
        oracle.observe_reply("c0", 1_050_000, wall_s=10.05, rtt_s=0.001)
        oracle.observe_reply("c0", 1_051_000, wall_s=10.15, rtt_s=0.001)
        oracle.finish()  # run ends with the clock still lagging
        assert checks(oracle) == ["staleness"]
        assert "never caught back up" in oracle.violations[0].detail

    def test_noted_reconfig_forgives_unrepaid_lag(self):
        # A permanent drain legitimately shifts the value<->wall mapping
        # down (group time continues from the agreed value, it never
        # resnaps to wall), so with a reconfiguration on record the
        # finish() debt check must not flag.
        oracle = InvariantOracle(staleness_budget_us=2_000)
        oracle.observe_reply("c0", 1_000_000, wall_s=10.0, rtt_s=0.001)
        oracle.observe_reply("c0", 1_050_000, wall_s=10.05, rtt_s=0.001)
        oracle.note_reconfig("n0")
        oracle.observe_reply("c0", 1_051_000, wall_s=10.15, rtt_s=0.001)
        oracle.finish()
        assert oracle.ok, oracle.violations
        assert oracle.reconfigs_noted == 1
        assert oracle.stalls_tolerated == 1

    def test_reconfig_overshoot_within_transient_bound_tolerated(self):
        # A restarted member's first round can re-anchor group time
        # *above* any mapping the shrunk ring ever served (it repays
        # stalls the others wrote off).  With a reconfig on record the
        # overshoot is tolerated up to the transient bound.
        oracle = InvariantOracle(staleness_budget_us=2_000,
                                 max_transient_lag_us=1_000_000)
        oracle.observe_reply("c0", 1_000_000, wall_s=10.0, rtt_s=0.001)
        oracle.observe_reply("c0", 1_100_000, wall_s=10.1, rtt_s=0.001)
        oracle.note_reconfig("n1")
        oracle.observe_reply("c0", 1_600_000, wall_s=10.11, rtt_s=0.001)
        assert oracle.ok, oracle.violations
        assert oracle.overshoots_tolerated == 1
        # ...but a jump past the bound is still time from the future.
        oracle.observe_reply("c0", 9_000_000, wall_s=10.12, rtt_s=0.001)
        assert checks(oracle) == ["staleness"]

    def test_jump_beyond_known_mapping_still_flagged(self):
        oracle = InvariantOracle(staleness_budget_us=2_000)
        oracle.observe_reply("c0", 1_000_000, wall_s=10.0, rtt_s=0.001)
        oracle.observe_reply("c0", 1_100_000, wall_s=10.1, rtt_s=0.001)
        # This jump lands far *ahead* of any mapping ever observed —
        # never exempt, no matter what preceded it.
        oracle.observe_reply("c0", 2_000_000, wall_s=10.11, rtt_s=0.001)
        assert checks(oracle) == ["staleness"]

    def test_rtt_widens_the_slack(self):
        oracle = InvariantOracle(staleness_budget_us=2_000)
        oracle.observe_reply("c0", 1_000_000, wall_s=10.0, rtt_s=0.5)
        # The value runs 400 ms ahead of the 100 ms wall gap — fine when
        # both calls spent up to half a second in flight.
        oracle.observe_reply("c0", 1_500_000, wall_s=10.1, rtt_s=0.5)
        assert oracle.ok


class TestAgreement:
    def test_identical_commits_pass(self):
        tracer = trace.Tracer()
        oracle = InvariantOracle().attach(tracer)
        try:
            tracer.emit("round.complete", "n0",
                        thread="t", round=1, group_us=500, offset_us=5)
            tracer.emit("round.complete", "n1",
                        thread="t", round=1, group_us=500, offset_us=7)
        finally:
            oracle.detach()
        assert oracle.ok
        assert oracle.rounds_checked == 2

    def test_divergent_commit_flagged(self):
        tracer = trace.Tracer()
        oracle = InvariantOracle().attach(tracer)
        try:
            tracer.emit("round.complete", "n0",
                        thread="t", round=1, group_us=500)
            tracer.emit("round.complete", "n1",
                        thread="t", round=1, group_us=501)
        finally:
            oracle.detach()
        assert checks(oracle) == ["agreement"]
        assert oracle.violations[0].subject == "n1"

    def test_distinct_rounds_do_not_collide(self):
        tracer = trace.Tracer()
        oracle = InvariantOracle().attach(tracer)
        try:
            tracer.emit("round.complete", "n0",
                        thread="t", round=1, group_us=500)
            tracer.emit("round.complete", "n0",
                        thread="t", round=2, group_us=900)
            tracer.emit("round.complete", "n0",
                        thread="u", round=1, group_us=777)
        finally:
            oracle.detach()
        assert oracle.ok

    def test_other_trace_kinds_ignored(self):
        tracer = trace.Tracer()
        oracle = InvariantOracle().attach(tracer)
        try:
            tracer.emit("round.start", "n0", thread="t", round=1)
        finally:
            oracle.detach()
        assert oracle.rounds_checked == 0

    def test_node_violation_carries_recent_client_traces(self):
        # An agreement violation's subject is a node, which has no calls
        # of its own: the violation must still link the recent client
        # traffic so the timelines around the divergence can be pulled.
        tracer = trace.Tracer()
        oracle = InvariantOracle().attach(tracer)
        try:
            oracle.observe_reply("c0", 100, wall_s=0.0, trace_id="t-one")
            oracle.observe_reply("c1", 200, wall_s=0.0, trace_id="t-two")
            tracer.emit("round.complete", "n0",
                        thread="t", round=1, group_us=500)
            tracer.emit("round.complete", "n1",
                        thread="t", round=1, group_us=501)
        finally:
            oracle.detach()
        assert checks(oracle) == ["agreement"]
        assert oracle.violations[0].trace_ids == ["t-one", "t-two"]

    def test_client_traces_are_bounded(self):
        oracle = InvariantOracle()
        for i in range(30):
            oracle.observe_reply("c0", 100 * (i + 1), wall_s=i * 1e-4,
                                 trace_id=f"t{i}")
        oracle.observe_reply("c0", 50, wall_s=0.01, trace_id="t-last")
        (violation,) = oracle.violations
        assert len(violation.trace_ids) <= 16
        assert "t-last" in violation.trace_ids


class _FakeRecorder:
    def __init__(self, history):
        self.history = history


class _FakeSource:
    def __init__(self, history):
        self.recorder = _FakeRecorder(history)


class _FakeReplica:
    def __init__(self, history):
        self.time_source = _FakeSource(history)


class _FakeBed:
    """Just enough testbed for finish(): services + replicas()."""

    def __init__(self, replicas):
        self.services = {"svc": object()}
        self._replicas = replicas

    def replicas(self, group):
        return self._replicas


class TestFinish:
    def test_exact_offsets_pass(self):
        bed = _FakeBed({"n0": _FakeReplica([(1_000, 400, 600),
                                            (2_000, 1_100, 900)])})
        oracle = InvariantOracle()
        oracle.finish(bed, group="svc")
        assert oracle.ok

    def test_broken_offset_identity_flagged(self):
        bed = _FakeBed({"n0": _FakeReplica([(1_000, 400, 601)])})
        oracle = InvariantOracle()
        oracle.finish(bed, group="svc")
        assert checks(oracle) == ["offset"]
        assert oracle.violations[0].subject == "n0"

    def test_recovered_node_without_new_rounds_flagged(self):
        tracer = trace.Tracer()
        oracle = InvariantOracle().attach(tracer)
        try:
            tracer.emit("round.complete", "n1",
                        thread="t", round=1, group_us=500)
            oracle.note_recovery("n1")
        finally:
            pass
        oracle.finish()  # detaches
        assert checks(oracle) == ["recovery"]

    def test_recovered_node_with_new_round_passes(self):
        tracer = trace.Tracer()
        oracle = InvariantOracle().attach(tracer)
        try:
            oracle.note_recovery("n1")
            tracer.emit("round.complete", "n1",
                        thread="t", round=1, group_us=500)
        finally:
            pass
        oracle.finish()
        assert oracle.ok


class TestReport:
    def test_report_shape(self):
        oracle = InvariantOracle()
        oracle.observe_reply("c0", 10, wall_s=0.0)
        oracle.observe_reply("c0", 5, wall_s=0.001)
        report = oracle.report()
        assert report["ok"] is False
        assert report["replies_checked"] == 2
        assert report["clients"] == 1
        assert report["violations"][0]["check"] == "monotonicity"
        # Violations are JSON-able (transcripts are repr'd strings).
        assert all(isinstance(entry, str)
                   for entry in report["violations"][0]["transcript"])


class TestJudgedApart:
    def test_two_beds_are_judged_apart(self):
        """A judged run hears the rounds of the bed it judges, not those
        of another bed with the same node ids and group running beside it
        in the process (whose commits would disagree with the judged
        bed's at every round)."""
        judged, other = make_testbed(seed=41), make_testbed(seed=42)
        clients = {}
        for bed in (judged, other):
            bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
            clients[bed] = bed.client("n0")
        run = JudgedRun(seed=41)
        with run.over(judged, ["svc"], capture=False):
            judged.start()
            other.start()
            for _ in range(3):
                for bed in (judged, other):
                    call_n(bed, clients[bed], "svc", "get_time", 2)
                    bed.run(0.05)
        completed = sum(replica.time_source.stats.rounds_completed
                        for replica in judged.replicas("svc").values())
        assert completed > 0
        assert run.oracle.rounds_checked == completed
        assert run.oracle.ok, run.oracle.violations


class TestUnprovokedRepairs:
    """A round-counter or watermark repair is a transient fault's remedy:
    in a run with no ``corrupt-state`` on record, it masked a bug."""

    @staticmethod
    def judged_run(noted):
        bed = make_testbed(seed=43)
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
        client = bed.client("n0")
        run = JudgedRun(seed=43)
        with run.over(bed, ["svc"], capture=False):
            bed.start()
            call_n(bed, client, "svc", "get_time", 3)
            service = bed.replicas("svc")["n2"].time_source
            # A planted gap: n2's consumption point jumps by the
            # corrupt-state scrambler's distance.
            service._handlers["0:main"].my_round_number += 1_500_000
            if noted:
                run.oracle.note_corruption("n2")
            call_n(bed, client, "svc", "get_time", 5)
            bed.run(0.05)
        return run.oracle, service.stats.stabilizations

    def test_a_repair_with_no_corruption_on_record_fails_the_run(self):
        oracle, repairs = self.judged_run(noted=False)
        assert repairs.get("round-counter")
        # n2 proposed under its scrambled number before the live winner
        # reached it, so its peers adopted that numbering too (K16).
        assert set(checks(oracle)) == {"stabilization"}
        assert "n2" in {v.subject for v in oracle.violations}

    def test_the_same_repair_passes_with_corruption_on_record(self):
        oracle, repairs = self.judged_run(noted=True)
        assert repairs.get("round-counter")
        assert oracle.ok, oracle.violations
