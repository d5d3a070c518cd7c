"""Deterministic discrete-event simulation substrate (S1-S4 in DESIGN.md).

Replaces the paper's physical testbed: real time, POSIX threads, hardware
clocks, Ethernet and hosts are all modelled here so the protocol layers
above can run deterministically from a single seed.
"""

from .clock import US_PER_SEC, ClockValue, HardwareClock
from .cluster import Cluster, ClusterConfig
from .faults import FaultEvent, FaultPlan
from .kernel import Event, Process, Simulator, Timeout
from .network import Frame, Interface, LatencyModel, Network
from .node import Node
from .rng import RngRegistry, derive_seed

__all__ = [
    "ClockValue",
    "Cluster",
    "ClusterConfig",
    "Event",
    "FaultEvent",
    "FaultPlan",
    "Frame",
    "HardwareClock",
    "Interface",
    "LatencyModel",
    "Network",
    "Node",
    "Process",
    "RngRegistry",
    "Simulator",
    "Timeout",
    "US_PER_SEC",
    "derive_seed",
]
