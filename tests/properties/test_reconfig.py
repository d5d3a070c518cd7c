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

from repro.chaos.oracle import InvariantOracle
from repro.control import ControlPlane
from repro.errors import RpcTimeout
from repro.sim import FaultPlan

from support import ClockApp, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)

RECONFIG_SETTINGS = dict(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SERVING = ["n1", "n2", "n3"]
SPARE = "n4"


def run_reconfig_interleaving(seed, plan, plane_events, calls=12):
    """Run ``calls`` reads while the plan churns the membership.

    ``plane_events`` maps event kinds to targets so the end state can be
    asserted.  Returns (plane, oracle, values).
    """
    bed = make_testbed(seed=seed, num_nodes=5, epoch_spread_s=30.0)
    bed.deploy("svc", ClockApp, SERVING, style="active", time_source="cts")
    client = bed.client("n0")
    bed.start(settle=0.3)

    oracle = InvariantOracle()
    plane = ControlPlane(bed, group="svc",
                         on_node_ready=oracle.note_recovery)
    def control_drain(node_id):
        oracle.note_reconfig(node_id)
        return plane.drain_async(node_id)

    def control_join(node_id):
        oracle.note_reconfig(node_id)
        return plane.join_async(node_id)

    bed.control_drain = control_drain
    bed.control_join = control_join
    oracle.attach()
    try:
        plan.arm(bed)

        def scenario():
            values = []
            attempts = 0
            while len(values) < calls and attempts < calls * 5:
                attempts += 1
                try:
                    result, latency = yield from client.timed_call(
                        "svc", "get_time", timeout=0.5)
                except RpcTimeout:
                    continue  # churn in progress; retry
                if result.ok:
                    oracle.observe_reply(
                        "c0", result.value,
                        wall_s=bed.sim.now, rtt_s=latency)
                    values.append(result.value)
            return values

        values = bed.run_process(scenario())
        # Let async drains finalize and late joins transfer state.
        bed.run(1.5)
        oracle.finish(bed, group="svc")
    finally:
        oracle.detach()
    return plane, oracle, values


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
        plane_events = {}
        for kind, gap in zip(order, gaps):
            if kind == "join":
                plan.join(SPARE, at=at)
            elif kind == "drain":
                plan.drain(victim, at=at)
            else:
                plan.crash(crashed, at=at)
            plane_events[kind] = at
            at += gap

        plane, oracle, values = run_reconfig_interleaving(
            seed, plan, plane_events)

        assert oracle.ok, [v.as_dict() for v in oracle.violations]
        assert len(values) >= 8
        assert all(b > a for a, b in zip(values, values[1:]))
        serving = plane.serving()
        assert SPARE in serving  # the join always lands
        assert victim not in serving  # the drain always retires
        assert [entry["node"] for entry in plane.log
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
        plane, oracle, values = run_reconfig_interleaving(seed, plan, {})
        assert oracle.ok, [v.as_dict() for v in oracle.violations]
        assert len(values) >= 8
        assert all(b > a for a, b in zip(values, values[1:]))
        assert sorted(plane.serving()) == ["n1", "n2", "n3"]
