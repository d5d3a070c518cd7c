"""Reconfiguration property tests: randomized join/drain/crash
interleavings on a five-node simulated bed.

Each example draws an interleaving of elastic-control-plane events —
admit the spare replica, drain a serving one, crash (and optionally
recover) another — while a client keeps reading the group clock.  The
invariant oracle must report zero violations: the clock never rolls
back and replicas that answer, answer identically, no matter how the
membership churns.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos.runner import JudgedRun
from repro.sim import FaultPlan

from support import ClockApp, make_testbed, read_until  # noqa: E402 (tests/ on sys.path via conftest)

RECONFIG_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SERVING = ["n1", "n2", "n3"]
SPARE = "n4"


def run_reconfig_interleaving(seed, plan, calls=12):
    """Run ``calls`` reads while the plan churns the membership.
    Returns (judged run, values)."""
    bed = make_testbed(seed=seed, num_nodes=5, epoch_spread_s=30.0)
    bed.deploy("svc", ClockApp, SERVING, style="active", time_source="cts")
    client = bed.client("n0")
    bed.start(settle=0.3)
    run = JudgedRun(plan, seed=seed)
    values = []
    with run.over(bed, ["svc"]):
        values += read_until(bed, client, "svc", calls, tries_per_value=5,
                             oracle=run.oracle)
        # Let async drains finalize and late joins transfer state.
        bed.run(1.5)
    return run, values


class TestReconfigChaos:
    @settings(**RECONFIG_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        order=st.permutations(["join", "drain", "crash"]),
        gaps=st.tuples(*[st.floats(min_value=0.02, max_value=0.25)] * 3),
        victim=st.sampled_from(SERVING),
        crash_offset=st.integers(min_value=1, max_value=2),
    )
    def test_interleavings_keep_invariants(
            self, seed, order, gaps, victim, crash_offset):
        # The crashed node is always distinct from the drained one.
        crashed = SERVING[(SERVING.index(victim) + crash_offset) % 3]
        at = 0.05
        plan = FaultPlan()
        for kind, gap in zip(order, gaps):
            if kind == "join":
                plan.join(SPARE, at=at)
            elif kind == "drain":
                plan.drain(victim, at=at)
            else:
                plan.crash(crashed, at=at)
            at += gap

        run, values = run_reconfig_interleaving(seed, plan)

        verdict = run.verdict()
        assert verdict["ok"], verdict
        assert len(values) >= 8
        assert all(b > a for a, b in zip(values, values[1:]))
        serving = run.plane.serving()
        assert SPARE in serving  # the join always lands
        assert victim not in serving  # the drain always retires
        assert [entry["node"] for entry in run.plane.log
                if entry["op"] == "drain"] == [victim]

    @settings(**RECONFIG_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=5_000),
        drain_at=st.floats(min_value=0.02, max_value=0.2),
        rejoin_gap=st.floats(min_value=0.1, max_value=0.4),
    )
    def test_drain_then_rejoin_same_node(self, seed, drain_at, rejoin_gap):
        """A drained replica re-admitted through state transfer must pick
        up exactly where the group is — never behind it."""
        plan = (FaultPlan()
                .drain("n2", at=drain_at)
                .join("n2", at=drain_at + rejoin_gap))
        run, values = run_reconfig_interleaving(seed, plan)
        verdict = run.verdict()
        assert verdict["ok"], verdict
        assert len(values) >= 8
        assert all(b > a for a, b in zip(values, values[1:]))
        assert sorted(run.plane.serving()) == ["n1", "n2", "n3"]
