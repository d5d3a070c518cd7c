"""Protocol timing and flow-control parameters for Totem.

Defaults are calibrated against the paper's testbed measurements: the
peak probability density of the token-passing time was ≈51 us on four
1 GHz PCs over 100 Mbit/s Ethernet [Zhao et al. 2002], giving a full
rotation of ≈200 us on a four-node ring.  Timeouts are set an order of
magnitude above those scales, as a deployment would.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigurationError


@dataclass
class TotemConfig:
    """Tunable parameters of one Totem processor."""

    #: Maximum new messages a processor may broadcast per token visit.
    window_size: int = 16
    #: Simulated CPU cost of handling the token before forwarding it.
    #: Together with the network latency this sets the token-passing
    #: time, calibrated to the paper's measured ≈51 us peak per hop.
    token_processing_s: float = 21e-6
    #: No token for this long in operational state => assume token lost /
    #: processor failed, shift to the gather (membership) phase.
    token_loss_timeout_s: float = 5e-3
    #: After forwarding the token, retransmit it if no progress evidence
    #: (a newer token or message) is observed within this long.
    token_retransmit_timeout_s: float = 1.5e-3
    #: Maximum token retransmissions before giving up (membership takes
    #: over via the token-loss timeout).
    token_retransmit_limit: int = 3
    #: Interval between Join message rebroadcasts in the gather phase.
    join_interval_s: float = 1e-3
    #: Gather ticks with no Join heard from a processor before it is
    #: declared failed.
    fail_after_join_ticks: int = 4
    #: Interval between ring beacons multicast by the representative so
    #: that healed partitions remerge even when idle.  0 disables.
    beacon_interval_s: float = 25e-3
    #: Record per-processor token arrival timestamps (calibration
    #: measurements; costs memory on long runs).
    record_token_times: bool = False

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsensical settings."""
        if self.window_size < 1:
            raise ConfigurationError("window_size must be >= 1")
        if self.token_loss_timeout_s <= self.token_retransmit_timeout_s:
            raise ConfigurationError(
                "token_loss_timeout_s must exceed token_retransmit_timeout_s"
            )
        if self.fail_after_join_ticks < 1:
            raise ConfigurationError("fail_after_join_ticks must be >= 1")
        for name in ("token_processing_s", "join_interval_s"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")
