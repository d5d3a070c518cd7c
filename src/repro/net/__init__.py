"""repro.net — the live runtime: real sockets, wall time, daemons.

Everything else in this reproduction runs inside the deterministic
simulation kernel; this package is the deployment path.  It provides

* :class:`~repro.net.transport.Transport` — the send/deliver contract
  extracted from the simulated LAN, with two backends: the simulator
  (:class:`repro.sim.network.Network`) and real asyncio UDP sockets
  (:class:`~repro.net.udp.UdpTransport`).
* :class:`~repro.net.kernel.LiveKernel` — the simulation kernel's event
  API (events, timeouts, generator processes) re-implemented on an
  asyncio event loop in real time, so the protocol stack runs unmodified.
* :class:`~repro.net.testbed.LiveTestbed` — the sim
  :class:`~repro.testbed.Testbed` API over real sockets, in-process:
  the same :class:`~repro.sim.Cluster` hosts, whose seeded clock
  offsets and drifts run on the kernel's wall time.
* :class:`~repro.net.daemon.NodeDaemon` / :class:`~repro.net.client.LiveCaller`
  — the ``repro serve`` / ``repro call`` runtime for multi-process
  deployment.

Import the live classes from their modules: ``repro.sim.network`` pulls
in :mod:`repro.net.transport` at import time, and an import of the live
modules here would close an import cycle back into ``repro.sim``.
"""

from __future__ import annotations

from .transport import Transport, TransportPort

__all__ = ["Transport", "TransportPort"]
