"""Property-based tests of the system-level invariants (DESIGN.md §5).

Each example builds a full simulated deployment from a random seed and
schedule, so these are end-to-end invariant checks: agreement, strict
monotonicity, total order — under random clock epochs, drift, message
loss and crash timing.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from support import ClockApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)
from totem.helpers import TotemHarness  # noqa: E402

SIM_SETTINGS = dict(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestTimeServiceInvariants:
    @settings(**SIM_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        rounds=st.integers(min_value=2, max_value=12),
        spread=st.floats(min_value=0.0, max_value=120.0),
    )
    def test_agreement_and_monotonicity(self, seed, rounds, spread):
        bed = make_testbed(seed=seed, epoch_spread_s=spread)
        bed.record()
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        values = call_n(bed, client, "svc", "get_time", rounds)
        bed.run(0.05)
        # Strict monotonicity of the group clock.
        assert all(b > a for a, b in zip(values, values[1:]))
        # Agreement: identical readings at every replica (common suffix).
        readings = [
            tuple(v.micros for _, _, _, v in r.time_source.recorder.readings)[-rounds:]
            for r in bed.replicas("svc").values()
        ]
        assert readings[0] == readings[1] == readings[2]
        # Offset identity at every replica for every committed round.
        for replica in bed.replicas("svc").values():
            for group_us, physical_us, offset_us in (
                replica.time_source.recorder.history
            ):
                assert physical_us + offset_us == group_us

    @settings(**SIM_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        crash_index=st.integers(min_value=1, max_value=3),
        style=st.sampled_from(["active", "passive", "semi-active"]),
    )
    def test_monotone_across_random_crash(self, seed, crash_index, style):
        bed = make_testbed(seed=seed, epoch_spread_s=60.0)
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], style=style,
                   time_source="cts")
        client = bed.client("n0")
        bed.start(settle=0.3)
        before = call_n(bed, client, "svc", "get_time", 3)
        bed.crash(f"n{crash_index}")
        bed.run(0.8)
        after = call_n(bed, client, "svc", "get_time", 3)
        sequence = before + after
        assert all(b > a for a, b in zip(sequence, sequence[1:]))

    @settings(**SIM_SETTINGS)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_wire_economy(self, seed):
        """#CCS transmissions == #decided rounds in failure-free runs."""
        bed = make_testbed(seed=seed)
        bed.record()
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "get_time", 10)
        bed.run(0.1)
        transmitted = sum(
            r.time_source.stats.ccs_transmitted
            for r in bed.replicas("svc").values()
        )
        decided = max(
            len(r.time_source.recorder.winners) for r in bed.replicas("svc").values()
        )
        assert transmitted == decided


class TestTotemInvariants:
    @settings(**SIM_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        num_nodes=st.integers(min_value=2, max_value=5),
        messages=st.integers(min_value=1, max_value=20),
        loss=st.sampled_from([0.0, 0.0, 0.02, 0.05]),
    )
    def test_total_order_under_loss(self, seed, num_nodes, messages, loss):
        harness = TotemHarness(num_nodes, seed=seed, loss_rate=loss)
        harness.run_until_operational(timeout=3.0)
        for i in range(messages):
            sender = harness.cluster.node_ids[i % num_nodes]
            harness.processors[sender].mcast(i)
        harness.run(0.8)
        orders = [tuple(r.payloads) for r in harness.recorders.values()]
        assert all(order == orders[0] for order in orders)
        assert sorted(orders[0]) == list(range(messages))

    @settings(**SIM_SETTINGS)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        crash_after=st.floats(min_value=0.0, max_value=0.002),
    )
    def test_survivor_prefix_consistency_across_crash(self, seed, crash_after):
        """Virtual synchrony: survivors deliver identical sequences no
        matter when the sender crashes."""
        harness = TotemHarness(4, seed=seed)
        harness.run_until_operational()
        for i in range(15):
            harness.processors["n1"].mcast(i)
        harness.run(crash_after)
        harness.cluster.node("n1").crash()
        harness.run(0.6)
        survivors = ["n0", "n2", "n3"]
        orders = [tuple(harness.recorders[n].payloads) for n in survivors]
        assert orders[0] == orders[1] == orders[2]
