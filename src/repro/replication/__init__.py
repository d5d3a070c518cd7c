"""Replication infrastructure over Totem (S7-S8 in DESIGN.md).

Process groups, group views, the replica runtime with its deterministic
thread scheduler, the three replication styles the paper targets
(active, passive, semi-active) and state transfer for joining or
recovering replicas.
"""

from .active import ActiveReplica
from .context import OS_TICK_S, ReplicaContext
from .envelope import Envelope, MessageHeader, MsgType, make_envelope
from .group import GroupEndpoint, GroupRuntime, GroupView
from .passive import PassiveReplica
from .replica import Application, Replica, ReplicaStats
from .scheduler import LogicalThread, ThreadManager
from .semiactive import SemiActiveReplica
from .state_transfer import Checkpoint, StateTransferManager
from .timesource import HistoryRecorder, TimeSource

__all__ = [
    "ActiveReplica",
    "Application",
    "Checkpoint",
    "Envelope",
    "GroupEndpoint",
    "GroupRuntime",
    "GroupView",
    "HistoryRecorder",
    "LogicalThread",
    "MessageHeader",
    "MsgType",
    "OS_TICK_S",
    "PassiveReplica",
    "Replica",
    "ReplicaContext",
    "ReplicaStats",
    "SemiActiveReplica",
    "StateTransferManager",
    "ThreadManager",
    "TimeSource",
    "make_envelope",
]
