"""The consistent time service — the paper's contribution (S10-S11, S16).

Public surface: :class:`ConsistentTimeService` (plug into a replica as
its time source), the drift-compensation strategies of Section 3.3, the
clock-call interposition table, and the Section-5 multigroup causal
timestamp helpers.
"""

from .ccs_handler import CCSHandler
from .drift import (
    AlignedReferenceSteering,
    DriftCompensation,
    GradientSteering,
    MeanDelayCompensation,
    NoCompensation,
    ReferenceSteering,
)
from .group_clock import GroupClockState
from .guard import ByzantineGuard
from .interposition import CLOCK_CALLS, CLOCK_CALLS_BY_ID, ClockCall, resolve_call
from .messages import CCSMessage
from .multigroup import GroupClockStamp, observe_incoming, stamp_outgoing
from .recovery import TimeTransferState
from .time_service import ConsistentTimeService, CTSStats

__all__ = [
    "AlignedReferenceSteering",
    "ByzantineGuard",
    "CCSHandler",
    "CCSMessage",
    "CLOCK_CALLS",
    "CLOCK_CALLS_BY_ID",
    "CTSStats",
    "ClockCall",
    "ConsistentTimeService",
    "DriftCompensation",
    "GradientSteering",
    "GroupClockStamp",
    "GroupClockState",
    "MeanDelayCompensation",
    "NoCompensation",
    "ReferenceSteering",
    "TimeTransferState",
    "observe_incoming",
    "resolve_call",
    "stamp_outgoing",
]
