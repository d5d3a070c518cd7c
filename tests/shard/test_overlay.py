"""Gradient steering and summary exchange: units plus a small sim run."""

import pytest

from repro.core import GradientSteering
from repro.net.daemon import TimeApp
from repro.shard import (
    GradientOverlay,
    OverlayConfig,
    ShardedTestbed,
    ShardRouter,
    ShardSummary,
)


class TestGradientSteering:
    def test_negative_deltas_are_ignored(self):
        steering = GradientSteering()
        steering.observe_neighbor_delta(-500)
        assert steering.pending_us == 0
        assert steering.adjust_proposal(1_000) == 1_000

    def test_largest_lead_wins(self):
        steering = GradientSteering()
        steering.observe_neighbor_delta(300)
        steering.observe_neighbor_delta(150)
        assert steering.pending_us == 300

    def test_step_is_proportional_and_capped(self):
        steering = GradientSteering(0.5, max_step_us=200)
        steering.observe_neighbor_delta(100)
        assert steering.adjust_proposal(0) == 50  # p * delta
        steering.observe_neighbor_delta(10_000)
        assert steering.adjust_proposal(0) == 200  # capped
        assert steering.steps_applied == 2

    def test_pending_is_consumed_once(self):
        steering = GradientSteering()
        steering.observe_neighbor_delta(400)
        first = steering.adjust_proposal(0)
        assert first > 0
        assert steering.adjust_proposal(0) == 0
        assert steering.pending_us == 0

    def test_alignment_jump_applies_the_full_delta(self):
        steering = GradientSteering(align_threshold_us=10_000)
        steering.observe_neighbor_delta(5_000_000)
        assert steering.adjust_proposal(7) == 7 + 5_000_000
        assert steering.align_jumps == 1

    def test_fast_path_reads_never_consume_the_correction(self):
        # A step spent on a local fast-path read lives only in one
        # replica's fast floor; the hook must save it for a proposal.
        steering = GradientSteering()
        steering.observe_neighbor_delta(400)
        assert steering.adjust_fast_value(123) == 123
        assert steering.pending_us == 400

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            GradientSteering(0.0)
        with pytest.raises(ValueError):
            GradientSteering(max_step_us=0)
        with pytest.raises(ValueError):
            GradientSteering(max_step_us=500, align_threshold_us=500)


class TestShardSummary:
    def test_sign_and_verify(self):
        summary = ShardSummary(shard=1, group="shard1", value_us=123,
                               offset_us=45, round_seq=6, error_us=7)
        signed = summary.sign("secret")
        assert signed.verify("secret")
        assert not signed.verify("other")

    def test_tampered_value_fails_verification(self):
        signed = ShardSummary(shard=1, group="shard1", value_us=123,
                              offset_us=45, round_seq=6,
                              error_us=7).sign("secret")
        assert not signed._replace(value_us=999).verify("secret")

    def test_open_mode_accepts_unsigned(self):
        summary = ShardSummary(shard=0, group="shard0", value_us=1,
                               offset_us=0, round_seq=1, error_us=0)
        assert summary.verify(None)


class TestOverlayConvergence:
    def test_shards_align_and_stay_inside_the_hop_bound(self):
        bed = ShardedTestbed(shards=2, shard_size=3, seed=3)
        bed.deploy_shards(TimeApp)
        config = OverlayConfig(secret="t")
        overlay = GradientOverlay(bed, config)
        router = ShardRouter(bed)
        bed.start()
        overlay.start()

        def worker(key):
            session = router.session(key)
            while bed.sim.now < 2.0:
                yield from router.call(session)
                yield bed.sim.timeout(0.002)

        for index in range(4):
            bed.sim.process(worker(f"c{index}"), name=f"w{index}")
        bed.run(2.2)

        # Initial epochs sit seconds apart; the overlay must have jumped
        # them together and then held the post-warmup envelope.
        envelope = overlay.skew.envelope()
        assert envelope["samples"] > 0
        assert envelope["max_hop_skew_us"] <= config.hop_bound_us
        assert overlay.summaries_sent > 0
        assert overlay.summaries_received > 0
        assert overlay.summaries_rejected == 0

    def test_bad_signature_is_rejected_and_not_steered(self):
        bed = ShardedTestbed(shards=2, shard_size=3, seed=0)
        bed.deploy_shards(TimeApp)
        overlay = GradientOverlay(bed, OverlayConfig(secret="right"))
        forged = ShardSummary(shard=0, group="shard0",
                              value_us=10**9, offset_us=0, round_seq=1,
                              error_us=0).sign("wrong")
        overlay._on_summary(bed.client_node_of(1), forged)
        assert overlay.summaries_rejected == 1
        assert bed.steerings == {} or all(
            s.pending_us == 0 for s in bed.steerings.values())
