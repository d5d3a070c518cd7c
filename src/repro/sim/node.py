"""Hosts (the testbed's Pentium III PCs), simulated or live.

A :class:`Node` bundles a hardware clock, a network interface, a relative
CPU speed, and the set of processes running on it; on a live kernel and
transport its clock moves with the wall.  Nodes are fail-stop (paper
Section 2): :meth:`Node.crash` atomically stops all its processes,
silences its interface and makes its clock unreadable;
:meth:`Node.recover` brings the host back with its clock intact but all
volatile state gone (the replication layer re-initialises it via state
transfer).
"""

from __future__ import annotations

import random
from typing import Callable, Generator, List, Optional

from ..errors import NodeDown
from ..net.transport import Transport, TransportPort
from ..obs import Bus
from .clock import ClockValue, HardwareClock
from .kernel import Process, Simulator, Timeout
from .network import Frame


class Node:
    """One host attached to a transport (the modelled LAN or UDP)."""

    def __init__(
        self,
        sim: Simulator,
        node_id: str,
        network: Transport,
        cpu_rng: random.Random,
        *,
        clock_epoch_us: int = 0,
        clock_drift_ppm: float = 0.0,
        clock_granularity_us: int = 1,
        cpu_factor: float = 1.0,
        cpu_jitter: float = 0.05,
        obs: Optional[Bus] = None,
    ):
        if cpu_factor <= 0:
            raise ValueError(f"cpu_factor must be positive, got {cpu_factor}")
        self.sim = sim
        self.node_id = node_id
        #: The bed's telemetry bus: the protocol stack built on this host
        #: traces and records into it.
        self.obs = obs if obs is not None else Bus()
        self.alive = True
        self.cpu_factor = cpu_factor
        self.cpu_jitter = cpu_jitter
        self._cpu_rng = cpu_rng
        self.clock = HardwareClock(
            sim,
            epoch_us=clock_epoch_us,
            drift_ppm=clock_drift_ppm,
            granularity_us=clock_granularity_us,
            name=f"clock.{node_id}",
        )
        self.iface: TransportPort = network.attach(node_id, self._on_frame)
        self._receiver: Optional[Callable[[Frame], None]] = None
        self._processes: List[Process] = []
        self.crash_count = 0

    # -- networking -----------------------------------------------------

    def set_receiver(self, receiver: Callable[[Frame], None]) -> None:
        """Register the protocol entity that consumes inbound frames
        (normally the Totem processor on this node)."""
        self._receiver = receiver

    @property
    def address(self):
        """The port's bound socket address; None on the modelled LAN."""
        return self.iface.address

    @property
    def receiver(self) -> Optional[Callable[[Frame], None]]:
        """The installed receiver — what an interposing layer chains to."""
        return self._receiver

    def _on_frame(self, frame: Frame) -> None:
        if self.alive and self._receiver is not None:
            self._receiver(frame)

    # -- processes ---------------------------------------------------------

    def spawn(self, generator: Generator, name: str = "") -> Process:
        """Start a simulated process on this node.

        The process dies with the node: :meth:`crash` kills every process
        spawned here.
        """
        if not self.alive:
            raise NodeDown(self.node_id)
        proc = self.sim.process(generator, name=f"{self.node_id}:{name}")
        self._processes = [p for p in self._processes if p.is_alive]
        self._processes.append(proc)
        return proc

    def compute(self, seconds: float) -> Timeout:
        """An event modelling ``seconds`` of CPU work on this node.

        Actual duration = ``seconds / cpu_factor`` perturbed by a uniform
        jitter of ±``cpu_jitter`` (scheduling noise, cache effects, the
        co-resident Totem process — the paper notes these make the same
        iteration count take different real times on different runs).
        """
        if not self.alive:
            raise NodeDown(self.node_id)
        scale = 1.0 + self._cpu_rng.uniform(-self.cpu_jitter, self.cpu_jitter)
        return self.sim.timeout(max(0.0, seconds * scale / self.cpu_factor))

    def busy_loop(self, iterations: int, per_iteration_s: float = 4.0e-9) -> Timeout:
        """Model the paper's empty-iteration delay loop.

        The experiments insert 30,000 / 60,000 / 90,000 empty iterations
        between clock reads (60-400 us on the 1 GHz testbed) because
        ``sleep`` granularity is 10 ms.  ``per_iteration_s`` defaults to a
        value calibrated to land in that range.
        """
        return self.compute(iterations * per_iteration_s)

    # -- clock ----------------------------------------------------------------

    def read_clock(self) -> ClockValue:
        """Read this node's (disciplined) physical clock."""
        if not self.alive:
            raise NodeDown(self.node_id)
        return self.clock.read()

    def read_clock_us(self) -> int:
        """Read this node's physical clock as integer microseconds."""
        if not self.alive:
            raise NodeDown(self.node_id)
        return self.clock.read_us()

    # -- failure injection -------------------------------------------------------

    def crash(self) -> None:
        """Fail-stop: kill all processes, silence the interface."""
        if not self.alive:
            return
        self.alive = False
        self.crash_count += 1
        self.iface.up = False
        for proc in self._processes:
            proc.kill()
        self._processes = []

    def recover(self) -> None:
        """Restart the host.  Volatile state is gone; the hardware clock
        keeps running across the outage (battery-backed RTC)."""
        if self.alive:
            return
        self.alive = True
        self.iface.up = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return f"<Node {self.node_id} {state}>"
