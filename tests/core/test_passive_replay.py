"""Passive-replication replay determinism (paper Sections 1 & 3.3).

The decisive property: when a backup takes over and replays logged
requests, its clock-related operations consume the **buffered CCS
messages from the old primary's rounds**, so the replayed execution
reproduces the exact clock values the old primary used — state derived
from clock readings is bit-identical across the failover.
"""

import pytest

from repro import Application

from support import ClockApp, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


class StampLog(Application):
    """Remembers the clock value used for every request."""

    def __init__(self):
        self.stamps = []

    def stamp(self, ctx):
        yield ctx.compute(20e-6)
        value = yield ctx.gettimeofday()
        self.stamps.append(value.micros)
        return value.micros

    def get_state(self):
        return list(self.stamps)

    def set_state(self, state):
        self.stamps = list(state)


def deploy(seed, checkpoint_interval=100):
    bed = make_testbed(seed=seed, epoch_spread_s=30.0)
    bed.deploy(
        "svc", StampLog, ["n1", "n2", "n3"],
        style="passive", time_source="cts",
        checkpoint_interval=checkpoint_interval,
    )
    client = bed.client("n0")
    bed.start(settle=0.3)
    return bed, client


def buffered_rounds(replica):
    """Winning CCS messages a replica holds unconsumed, over its threads."""
    return sum(len(handler.my_input_buffer)
               for handler in replica.time_source._handlers.values())


def calls(bed, client, n):
    def scenario():
        values = []
        for _ in range(n):
            result, _ = yield from client.timed_call("svc", "stamp",
                                                     timeout=3.0)
            assert result.ok, result.error
            values.append(result.value)
        return values

    return bed.run_process(scenario())


class TestReplayDeterminism:
    def test_replayed_stamps_match_original_execution(self):
        bed, client = deploy(seed=150)
        original = calls(bed, client, 7)
        primary = next(
            nid for nid, r in bed.replicas("svc").items() if r.is_primary
        )
        bed.crash(primary)
        bed.run(0.6)
        new_primary = next(
            r for r in bed.replicas("svc").values() if r.is_primary
        )
        # The promoted backup replayed all 7 requests; its stamps equal
        # the values the old primary answered with.
        assert new_primary.app.stamps[:7] == original

    def test_replay_consumes_buffered_rounds_not_new_ones(self):
        bed, client = deploy(seed=151)
        calls(bed, client, 6)
        backup = next(
            r for r in bed.replicas("svc").values() if not r.is_primary
        )
        # The backup holds the old primary's 6+ winning CCS messages.
        assert buffered_rounds(backup) >= 6
        sent_before = backup.time_source.stats.ccs_sent
        primary = next(
            nid for nid, r in bed.replicas("svc").items() if r.is_primary
        )
        bed.crash(primary)
        bed.run(0.6)
        if backup.is_primary:
            # Replaying did not send CCS messages for the buffered rounds.
            assert backup.time_source.stats.rounds_from_buffer >= 6
            assert backup.time_source.stats.ccs_sent == sent_before

    def test_new_rounds_after_replay_continue_group_clock(self):
        bed, client = deploy(seed=152)
        before = calls(bed, client, 5)
        primary = next(
            nid for nid, r in bed.replicas("svc").items() if r.is_primary
        )
        bed.crash(primary)
        bed.run(0.6)
        after = calls(bed, client, 5)
        sequence = before + after
        assert all(b > a for a, b in zip(sequence, sequence[1:]))

    def test_checkpoint_prunes_buffered_rounds(self):
        """With frequent checkpoints, backups skip past covered rounds
        and drop the corresponding buffered CCS messages."""
        bed, client = deploy(seed=153, checkpoint_interval=3)
        calls(bed, client, 9)
        bed.run(0.1)
        backup = next(
            r for r in bed.replicas("svc").values() if not r.is_primary
        )
        # At most the rounds since the last checkpoint remain buffered.
        assert buffered_rounds(backup) <= 4

    def test_replay_after_checkpoint_only_replays_tail(self):
        bed, client = deploy(seed=154, checkpoint_interval=4)
        original = calls(bed, client, 10)
        primary = next(
            nid for nid, r in bed.replicas("svc").items() if r.is_primary
        )
        old_primary_replica = bed.replicas("svc")[primary]
        bed.crash(primary)
        bed.run(0.6)
        new_primary = next(
            r for r in bed.replicas("svc").values() if r.is_primary
        )
        # State = checkpoint + replayed tail; stamps match the original.
        assert new_primary.app.stamps == original
        # And the replay processed fewer requests than the full history.
        assert new_primary.stats.requests_processed < 10

    def test_a_backup_holds_the_time_state_a_joiner_would(self):
        """A periodic checkpoint is applied like a state transfer: the
        causal floor a request's session floor raised at the primary
        reaches every backup with it."""
        bed = make_testbed(seed=3)
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], style="passive",
                   time_source="cts", checkpoint_interval=1)
        client = bed.client("n0")
        bed.start()

        def scenario():
            result, _ = yield from client.timed_call("svc", "get_time")
            floor_us = result.value + 50_000_000
            result, _ = yield from client.timed_call(
                "svc", "get_time_after", floor_us)
            assert result.ok and result.value > floor_us
            result, _ = yield from client.timed_call("svc", "get_time")
            assert result.ok

        bed.run_process(scenario())
        replicas = bed.replicas("svc").values()
        (primary,) = [r for r in replicas if r.is_primary]
        floor_us = primary.time_source.clock_state.causal_floor_us
        assert floor_us is not None
        for replica in replicas:
            assert replica.time_source.clock_state.causal_floor_us == floor_us
