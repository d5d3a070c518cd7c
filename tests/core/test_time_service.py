"""Integration tests for the consistent time service — the paper's
central guarantees: agreement, monotonicity, duplicate suppression,
offset identity, synchronizer rotation."""

import pytest

from support import ClockApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


def deploy_cts(seed, nodes=("n1", "n2", "n3"), style="active", **kwargs):
    bed = make_testbed(seed=seed, **kwargs)
    bed.record()
    bed.deploy("svc", ClockApp, list(nodes), style=style, time_source="cts")
    client = bed.client("n0")
    bed.start()
    return bed, client


class TestAgreement:
    def test_all_replicas_return_same_value(self):
        bed, client = deploy_cts(seed=40)
        call_n(bed, client, "svc", "get_time", 10)
        bed.run(0.05)
        # Replicas that joined earlier served extra state-transfer
        # special rounds; the invocation rounds are the common suffix.
        readings = {
            nid: [v.micros for _, _, _, v in r.time_source.recorder.readings][-10:]
            for nid, r in bed.replicas("svc").items()
        }
        values = list(readings.values())
        assert values[0] == values[1] == values[2]
        assert len(values[0]) == 10

    def test_rounds_completed_counted(self):
        bed, client = deploy_cts(seed=41)
        call_n(bed, client, "svc", "get_time", 5)
        bed.run(0.05)
        for replica in bed.replicas("svc").values():
            # 5 invocation rounds plus any state-transfer special rounds.
            assert replica.time_source.stats.rounds_completed >= 5

    def test_offset_identity_per_round(self):
        """group == physical + offset after every committed round."""
        bed, client = deploy_cts(seed=42)
        call_n(bed, client, "svc", "get_time", 8)
        bed.run(0.05)
        for replica in bed.replicas("svc").values():
            for group_us, physical_us, offset_us in (
                replica.time_source.recorder.history
            ):
                assert physical_us + offset_us == group_us

    def test_agreement_with_unsynchronized_clocks(self):
        # Huge epoch spread: physical clocks disagree by up to a minute.
        bed, client = deploy_cts(seed=43, epoch_spread_s=60.0)
        call_n(bed, client, "svc", "get_time", 6)
        bed.run(0.05)
        readings = [
            tuple(v.micros for _, _, _, v in r.time_source.recorder.readings)[-6:]
            for r in bed.replicas("svc").values()
        ]
        assert readings[0] == readings[1] == readings[2]


class TestMonotonicity:
    def test_group_clock_strictly_increases(self):
        bed, client = deploy_cts(seed=44)
        values = call_n(bed, client, "svc", "get_time", 20)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_monotone_across_replica_crash(self):
        bed, client = deploy_cts(seed=45)
        before = call_n(bed, client, "svc", "get_time", 5)
        bed.crash("n2")
        bed.run(0.5)
        after = call_n(bed, client, "svc", "get_time", 5)
        sequence = before + after
        assert all(b > a for a, b in zip(sequence, sequence[1:]))

    def test_monotone_with_negative_drift(self):
        bed, client = deploy_cts(seed=46, drift_ppm_max=200.0)
        values = call_n(bed, client, "svc", "get_time", 15)
        assert all(b > a for a, b in zip(values, values[1:]))


class TestDuplicateSuppression:
    def test_wire_ccs_count_equals_rounds(self):
        """Section 4.3: with duplicate suppression, the total number of
        CCS messages transmitted equals the number of rounds."""
        bed, client = deploy_cts(seed=47)
        rounds = 30
        call_n(bed, client, "svc", "get_time", rounds)
        bed.run(0.1)
        transmitted = sum(
            r.time_source.stats.ccs_transmitted
            for r in bed.replicas("svc").values()
        )
        decided_rounds = max(
            len(r.time_source.recorder.winners) for r in bed.replicas("svc").values()
        )
        assert transmitted == decided_rounds

    def test_duplicates_discarded_on_reception(self):
        bed, client = deploy_cts(seed=48)
        call_n(bed, client, "svc", "get_time", 20)
        bed.run(0.1)
        # Any CCS message that did reach the wire twice for a round was
        # discarded by receivers; the count is tracked.
        for replica in bed.replicas("svc").values():
            assert replica.time_source.stats.duplicates_discarded >= 0

    def test_slow_replicas_answer_from_buffer(self):
        """A replica that reaches the clock operation after the winner's
        CCS message was already delivered never constructs a message at
        all (Figure 2, line 11 short-circuit)."""
        bed, client = deploy_cts(seed=49)
        # Make n3 an order of magnitude slower: its clock operations start
        # after the round has already been decided.
        bed.cluster.node("n3").cpu_factor = 0.05
        call_n(bed, client, "svc", "get_time", 20)
        bed.run(0.1)
        slow = bed.replicas("svc")["n3"].time_source.stats
        assert slow.rounds_from_buffer > 0
        assert slow.ccs_sent < 20


class TestSynchronizer:
    def test_winner_recorded_per_round(self):
        bed, client = deploy_cts(seed=50)
        call_n(bed, client, "svc", "get_time", 10)
        bed.run(0.05)
        replicas = list(bed.replicas("svc").values())
        winners = [w for _, _, w in replicas[0].time_source.recorder.winners]
        assert len(winners) >= 10
        # All winners are group members.
        assert set(winners) <= {"n1", "n2", "n3"}

    def test_winner_history_identical_across_replicas(self):
        bed, client = deploy_cts(seed=51)
        call_n(bed, client, "svc", "get_time", 10)
        bed.run(0.05)
        histories = [
            tuple(r.time_source.recorder.winners) for r in bed.replicas("svc").values()
        ]
        assert histories[0] == histories[1] == histories[2]


class TestCallTypes:
    def test_time_returns_whole_seconds(self):
        bed, client = deploy_cts(seed=52)
        values = call_n(bed, client, "svc", "get_time_coarse", 3)
        assert all(v % 1_000_000 == 0 for v in values)

    def test_ftime_returns_milliseconds(self):
        bed, client = deploy_cts(seed=53)
        values = call_n(bed, client, "svc", "get_time_ms", 3)
        assert all(v % 1_000 == 0 for v in values)

    def test_mixed_calls_stay_consistent(self):
        bed, client = deploy_cts(seed=54)
        call_n(bed, client, "svc", "get_time", 2)
        call_n(bed, client, "svc", "get_time_coarse", 2)
        call_n(bed, client, "svc", "get_time_ms", 2)
        bed.run(0.05)
        readings = [
            tuple(v.micros for _, _, _, v in r.time_source.recorder.readings)[-6:]
            for r in bed.replicas("svc").values()
        ]
        assert readings[0] == readings[1] == readings[2]


class TestModes:
    def test_semi_active_only_primary_sends(self):
        bed, client = deploy_cts(seed=55, style="semi-active")
        call_n(bed, client, "svc", "get_time", 10)
        bed.run(0.05)
        senders = {
            nid: r.time_source.stats.ccs_sent
            for nid, r in bed.replicas("svc").items()
        }
        primary = next(
            nid for nid, r in bed.replicas("svc").items() if r.is_primary
        )
        for nid, sent in senders.items():
            if nid != primary:
                assert sent == 0

    def test_semi_active_values_consistent(self):
        bed, client = deploy_cts(seed=56, style="semi-active")
        values = call_n(bed, client, "svc", "get_time", 8)
        bed.run(0.05)
        readings = [
            tuple(v.micros for _, _, _, v in r.time_source.recorder.readings)[-8:]
            for r in bed.replicas("svc").values()
        ]
        assert readings[0] == readings[1] == readings[2]
        assert all(b > a for a, b in zip(values, values[1:]))


class TestDeterminism:
    def test_same_seed_same_group_clock(self):
        def run(seed):
            bed, client = deploy_cts(seed=seed)
            return tuple(call_n(bed, client, "svc", "get_time", 5))

        assert run(60) == run(60)
        assert run(60) != run(61)
