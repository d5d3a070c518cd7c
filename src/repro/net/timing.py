"""Totem timing profile for live (real-time) operation.

The default :class:`~repro.totem.config.TotemConfig` is tuned to the
paper's quiet dedicated Ethernet: a 1.5 ms token-retransmit timeout and
a 5 ms token-loss timeout are realistic there, but on a shared machine
an asyncio timer can easily be tens of milliseconds late (GC pauses,
scheduler jitter, a busy CI host), which would produce constant spurious
token losses and membership churn.  The live profile scales the timeouts
into a range where only a real failure trips them, trading failure
detection latency (~a quarter second instead of ~5 ms) for ring
stability — the same trade production group-communication systems make.
"""

from __future__ import annotations

from ..totem.config import TotemConfig


def live_totem_config(**overrides) -> TotemConfig:
    """A :class:`TotemConfig` sized for wall-clock scheduling jitter.

    Keyword overrides replace individual fields (e.g. a test that wants
    faster failover can lower ``token_loss_timeout_s``).
    """
    params = dict(
        # The processing delay models CPU cost in the simulator; live
        # nodes pay the real cost, so the model contributes nothing but lag.
        token_processing_s=0.0,
        token_retransmit_timeout_s=0.05,
        token_loss_timeout_s=0.25,
        token_retransmit_limit=3,
        join_interval_s=0.05,
        fail_after_join_ticks=4,
        beacon_interval_s=0.5,
    )
    params.update(overrides)
    config = TotemConfig(**params)
    config.validate()
    return config
