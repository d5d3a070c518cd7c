"""Per-replica group-clock state: the clock offset and monotonic floor.

Implements the arithmetic of the consistent clock synchronization
algorithm (paper Figure 2):

* ``my_clock_offset`` — offset of the group clock from this replica's
  physical hardware clock, recomputed once per round as
  ``group_clock_value − my_physical_clock_val`` (line 7).
* proposals — ``my_local_clock_val = my_physical_clock_val +
  my_clock_offset`` (line 4), optionally adjusted by a drift-compensation
  strategy (Section 3.3) and floored so the group clock is *strictly*
  monotonically increasing even across sub-microsecond rounds and
  cross-group causal dependencies (Section 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: High-side slack of the drift-certified window: a group value may
#: exceed ``last_group + elapsed + drift_error`` by at most this much —
#: the fast-path ceiling in both modes, the guard's winner filter.
CERTIFIED_SLACK_US = 10_000
#: A floor or offset this far from an agreed value is corruption, not
#: history — stabilize rather than poison proposals.
STABILIZE_VALUE_GAP_US = 10_000_000
#: A duplicate-detection watermark this far ahead of live rounds is
#: corruption — reset it rather than discard rounds forever.
STABILIZE_ROUND_GAP = 10_000


@dataclass
class GroupClockState:
    """The offset-tracking state of one replica's time service."""

    #: my_clock_offset: group clock minus local physical clock (us).
    offset_us: int = 0
    #: The last group clock value decided (replica-independent).
    last_group_us: Optional[int] = None
    #: Causal floor from other groups' piggybacked timestamps (Section 5).
    causal_floor_us: Optional[int] = None
    #: Highest value served by the drift-bounded read fast path.  Purely
    #: local (never transferred): it keeps this replica's *own* proposals
    #: and fast reads strictly above everything it already handed out.
    fast_floor_us: Optional[int] = None

    # ------------------------------------------------------------------

    def propose(self, physical_us: int) -> int:
        """Compute the local logical clock value to propose for the group
        clock (Figure 2, line 4), with the strict-monotonicity floor."""
        return self.clamp_to_floor(physical_us + self.offset_us)

    def clamp_to_floor(self, proposal_us: int) -> int:
        """Enforce the strict-monotonicity and causal floors on a
        proposal.  Applied both to the raw proposal and again after any
        drift-compensation adjustment (an aggressive steering reference
        must never pull a winning proposal below the last group value)."""
        proposal = proposal_us
        if self.last_group_us is not None and proposal <= self.last_group_us:
            proposal = self.last_group_us + 1
        if self.causal_floor_us is not None and proposal <= self.causal_floor_us:
            proposal = self.causal_floor_us + 1
        if self.fast_floor_us is not None and proposal <= self.fast_floor_us:
            proposal = self.fast_floor_us + 1
        return proposal

    def commit(self, group_us: int, physical_us: int) -> int:
        """A round decided ``group_us``; recompute the offset against the
        physical value read at the start of the round (Figure 2, line 7).

        Returns the new offset.
        """
        self.offset_us = group_us - physical_us
        self.observe_group_value(group_us)
        return self.offset_us

    def observe_group_value(self, group_us: int) -> None:
        """Track a decided group clock value without recomputing the
        offset (backups observe rounds they do not perform)."""
        if self.last_group_us is None or group_us > self.last_group_us:
            self.last_group_us = group_us

    def note_fast_value(self, value_us: int) -> None:
        """A drift-bounded fast-path read served ``value_us`` locally;
        raise the fast floor so later fast reads and our own proposals
        stay strictly above it."""
        if self.fast_floor_us is None or value_us > self.fast_floor_us:
            self.fast_floor_us = value_us

    def observe_causal_timestamp(self, timestamp_us: int) -> None:
        """Raise the causal floor from another group's timestamp
        (Section 5 / multigroup extension)."""
        if self.causal_floor_us is None or timestamp_us > self.causal_floor_us:
            self.causal_floor_us = timestamp_us

    def drop_floors_above(self, ceiling_us: int) -> Tuple[str, ...]:
        """Self-stabilization repair: drop each floor above
        ``ceiling_us``, a value no round, read or ordered input this
        replica trusts can have reached.  Returns the floors dropped
        (``fast``, ``causal``)."""
        dropped: Tuple[str, ...] = ()
        if self.fast_floor_us is not None and self.fast_floor_us > ceiling_us:
            self.fast_floor_us = None
            dropped += ("fast",)
        if (self.causal_floor_us is not None
                and self.causal_floor_us > ceiling_us):
            self.causal_floor_us = None
            dropped += ("causal",)
        return dropped

    def stabilize(self) -> None:
        """Self-stabilization repair: drop every monotonicity floor.

        Called by the Byzantine-mode recovery path when the floors are
        provably implausible (they sit far above a freshly agreed group
        value, so they came from corrupted state, not from real rounds).
        The next commit re-derives ``offset_us`` and re-anchors every
        floor from the agreed value.
        """
        self.last_group_us = None
        self.causal_floor_us = None
        self.fast_floor_us = None
