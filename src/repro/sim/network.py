"""Simulated local-area network.

Substitutes for the paper's dedicated 100 Mbit/s Ethernet.  The model is
a broadcast LAN: an interface can unicast to any interface, itself
included, or multicast to all the others.  Each delivery experiences

``latency = transmission(size) + propagation + jitter``

with jitter drawn per destination from a seeded stream, plus optional
independent per-destination loss and explicit network partitions (used to
exercise Totem's recovery and primary-component logic).

Determinism: all randomness comes from the stream handed in at
construction, so identical seeds give identical packet timings.

:class:`Network` is the simulated backend of the
:class:`repro.net.transport.Transport` contract; the live counterpart is
:class:`repro.net.udp.UdpTransport`, which carries the same frames over
real UDP sockets.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from .. import obs
from ..errors import NetworkError
from ..obs import Bus
from ..net.transport import Transport, TransportPort
from .kernel import Simulator

#: Interface / Network attribute -> the registry family read from it.
IFACE_COUNTERS = obs.read_counters({
    "frames_sent": ("net_frames_sent_total", "frames handed to the LAN per interface"),
    "bytes_sent": ("net_bytes_sent_total",
                   "payload bytes handed to the LAN per interface"),
    "frames_received": ("net_frames_received_total", "frames delivered per interface"),
})
NETWORK_COUNTERS = obs.read_counters({
    "frames_dropped": ("net_frames_dropped_total",
                       "frames lost to the configured loss rate"),
})


@dataclass
class LatencyModel:
    """Latency parameters for one LAN segment.

    * ``bandwidth_bps``  — serialization rate (bits per second).
    * ``propagation_s``  — fixed propagation + interrupt/driver cost.
    * ``jitter_mean_s``  — mean of the exponential jitter component
      (queueing in the kernel/NIC); zero disables jitter.
    """

    bandwidth_bps: float = 100e6
    propagation_s: float = 20e-6
    jitter_mean_s: float = 5e-6

    def sample(self, rng: random.Random, size_bytes: int) -> float:
        """Draw one end-to-end latency for a frame of ``size_bytes``."""
        transmission = (size_bytes * 8.0) / self.bandwidth_bps
        jitter = rng.expovariate(1.0 / self.jitter_mean_s) if self.jitter_mean_s > 0 else 0.0
        return transmission + self.propagation_s + jitter


@dataclass
class Frame:
    """One frame on the wire."""

    src: str
    dst: Optional[str]  # None for multicast
    payload: Any
    size_bytes: int
    sent_at: float
    seq: int = field(default=0)


class Interface(TransportPort):
    """A node's attachment point to the network."""

    #: A modelled port has no socket address (``Node.address``).
    address = None

    def __init__(self, network: "Network", node_id: str,
                 deliver: Callable[[Frame], None]):
        self.network = network
        self.node_id = node_id
        self._deliver = deliver
        self.up = True
        # Wire-level statistics, used by the evaluation (e.g. counting CCS
        # messages actually transmitted).
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        network.metrics.watch(self, IFACE_COUNTERS, node=node_id)

    # -- sending ----------------------------------------------------------

    def unicast(self, dst: str, payload: Any, size_bytes: int = 128) -> None:
        """Send ``payload`` to the interface attached as ``dst``."""
        self._count_send(size_bytes)
        self.network._transmit(Frame(self.node_id, dst, payload, size_bytes,
                                     self.network.sim.now))

    def multicast(self, payload: Any, size_bytes: int = 128) -> None:
        """Send ``payload`` to every *other* attached interface: a
        sender never hears its own multicast (:mod:`repro.net.transport`).
        The sender's leg still draws its loss and jitter, in attachment
        order, because that seeded stream is the cost model behind every
        simulated figure."""
        self._count_send(size_bytes)
        self.network._transmit(Frame(self.node_id, None, payload, size_bytes,
                                     self.network.sim.now))

    def _count_send(self, size_bytes: int) -> None:
        if not self.up:
            raise NetworkError(f"interface {self.node_id!r} is down")
        self.frames_sent += 1
        self.bytes_sent += size_bytes

    # -- receiving ----------------------------------------------------------

    def _receive(self, frame: Frame) -> None:
        if not self.up:
            return
        self.frames_received += 1
        self._deliver(frame)


class Network(Transport):
    """The broadcast LAN connecting all simulated nodes."""

    def __init__(
        self,
        sim: Simulator,
        rng: random.Random,
        *,
        latency: Optional[LatencyModel] = None,
        loss_rate: float = 0.0,
        obs: Optional[Bus] = None,
    ):
        if not 0.0 <= loss_rate < 1.0:
            raise NetworkError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.sim = sim
        self.rng = rng
        self.latency = latency or LatencyModel()
        self.loss_rate = loss_rate
        self._interfaces: Dict[str, Interface] = {}
        #: node_id -> partition component id; missing means component 0.
        self._component: Dict[str, int] = {}
        #: src -> dst -> latest scheduled arrival: switched Ethernet is
        #: FIFO per source-destination pair, so a later frame never
        #: overtakes an earlier one on the same path.  (Totem relies on
        #: this: the token is forwarded *after* the data messages of the
        #: same visit and must arrive after them.)
        self._last_arrival: Dict[str, Dict[str, float]] = {}
        self.frames_dropped = 0
        #: The bed's registry every interface records into.
        self.metrics = (obs or Bus()).metrics
        self.metrics.watch(self, NETWORK_COUNTERS)
        #: Optional per-leg payload mutator ``(src, dst, payload) ->
        #: payload`` applied to every delivery — the simulator-side
        #: hook for Byzantine injection (lies and equivocation in the
        #: property suites).  Mutators must return replaced copies,
        #: never mutate the shared payload.
        self.mutator: Optional[Callable[[str, str, Any], Any]] = None

    # -- topology -------------------------------------------------------------

    def attach(self, node_id: str, deliver: Callable[[Frame], None]) -> Interface:
        """Attach a node; ``deliver`` is invoked for each arriving frame."""
        if node_id in self._interfaces:
            raise NetworkError(f"node {node_id!r} already attached")
        iface = Interface(self, node_id, deliver)
        self._interfaces[node_id] = iface
        return iface

    def detach(self, node_id: str) -> None:
        """Remove a node's interface (frames in flight are dropped on
        arrival)."""
        iface = self._interfaces.pop(node_id, None)
        if iface is not None:
            iface.up = False

    def partition(self, *components) -> None:
        """Split the network into the given components.

        Each component is an iterable of node ids; unlisted nodes join
        component 0.  Frames only flow within a component.
        """
        self._component = {}
        for index, group in enumerate(components, start=1):
            for node_id in group:
                self._component[node_id] = index

    def heal(self) -> None:
        """Remove all partitions (every node back in one component)."""
        self._component = {}

    def reachable(self, src: str, dst: str) -> bool:
        """True if frames currently flow from ``src`` to ``dst``."""
        return self._component.get(src, 0) == self._component.get(dst, 0)

    # -- transmission ------------------------------------------------------------

    def _transmit(self, frame: Frame) -> None:
        # One pass per frame, per-frame work hoisted out of the
        # per-destination loop.  The random draws (loss, then jitter, per
        # destination in attachment order) and the float arithmetic are
        # part of the seeded cost model: neither may be reordered.
        interfaces = self._interfaces
        src, size = frame.src, frame.size_bytes
        if frame.dst is None:
            targets = interfaces
        elif frame.dst in interfaces:
            targets = (frame.dst,)
        else:
            return
        sim, rng, latency = self.sim, self.rng, self.latency
        now = sim.now
        loss_rate, mutator = self.loss_rate, self.mutator
        partitioned = bool(self._component)
        multicast = frame.dst is None
        last_arrival = self._last_arrival.setdefault(src, {})
        for dst in targets:
            if partitioned and not self.reachable(src, dst):
                continue
            if dst == src and multicast:
                # The sender's own leg delivers nothing but keeps its draws.
                if not (loss_rate > 0.0 and rng.random() < loss_rate):
                    latency.sample(rng, size)
                continue
            if loss_rate > 0.0 and rng.random() < loss_rate:
                self.frames_dropped += 1
                continue
            delay = latency.sample(rng, size)
            # A unicast to oneself (a singleton ring's token) is local.
            if dst == src:
                delay = min(delay, latency.propagation_s * 0.1)
            # Enforce per-(src, dst) FIFO ordering.
            arrival = now + delay
            previous = last_arrival.get(dst, 0.0)
            if arrival <= previous:
                arrival = previous + 1e-9
            last_arrival[dst] = arrival
            delivered = frame
            if mutator is not None:
                payload = mutator(src, dst, frame.payload)
                if payload is not frame.payload:
                    delivered = dataclasses.replace(frame, payload=payload)
            sim.schedule(arrival - now, interfaces[dst]._receive, delivered)
