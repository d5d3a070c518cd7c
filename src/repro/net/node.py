"""Live hosts: the sim :class:`~repro.sim.node.Node` on real substrate.

:class:`~repro.sim.node.Node` is already substrate-agnostic — it builds
its clock from ``sim.now``, attaches to whatever transport it is given,
and spawns processes through the kernel.  Handing it a
:class:`~repro.net.kernel.LiveKernel` and a
:class:`~repro.net.udp.UdpTransport` therefore yields a host whose
timeouts are real sleeps, whose frames cross real sockets, and whose
clock moves with the wall.  :class:`LiveNode` makes that configuration a
named thing: it swaps the clock for an explicit
:class:`~repro.net.clock.WallClock` and exposes the bound socket
address.

Fail-stop semantics carry over: :meth:`~repro.sim.node.Node.crash`
kills the node's kernel processes and silences its port (the socket
stays bound but inbound frames are dropped), which is what the live
failover test uses to kill a primary.
"""

from __future__ import annotations

import random

from ..sim.node import Node
from .clock import WallClock
from .kernel import LiveKernel
from .udp import Address, UdpTransport


class LiveNode(Node):
    """One live host: wall clock, UDP port, real-time processes."""

    def __init__(
        self,
        kernel: LiveKernel,
        node_id: str,
        transport: UdpTransport,
        cpu_rng: random.Random,
        *,
        clock_epoch_us: int = 0,
        clock_drift_ppm: float = 0.0,
    ):
        super().__init__(kernel, node_id, transport, cpu_rng,
                         clock_epoch_us=clock_epoch_us,
                         clock_drift_ppm=clock_drift_ppm)
        # Same parameters, explicit wall-clock type (the base class built
        # an equivalent clock on kernel time; keep one canonical object).
        self.clock = WallClock(kernel, epoch_us=clock_epoch_us,
                               drift_ppm=clock_drift_ppm,
                               name=f"clock.{node_id}")

    @property
    def address(self) -> Address:
        """The node's bound UDP address."""
        return self.iface.address
