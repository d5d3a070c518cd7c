"""The transport abstraction shared by the simulated and live stacks.

The protocol stack (Totem, the replication layer, the time service) is
written against a small send/deliver contract that the simulated LAN has
always provided implicitly.  This module makes that contract explicit so
the same protocol code can run over two backends:

* :class:`repro.sim.network.Network` — the deterministic simulated LAN
  (the original backend, now formally implementing this interface), and
* :class:`repro.net.udp.UdpTransport` — real UDP sockets on an asyncio
  event loop, with multicast emulated by unicast fan-out to every
  *other* peer.

The contract:

* A node *attaches* to the transport under its node id and supplies a
  ``deliver`` callback; attaching yields a :class:`TransportPort`.
* A port can :meth:`~TransportPort.unicast` a payload to an attached
  node (itself included: a singleton ring's token goes to its own
  successor) or :meth:`~TransportPort.multicast` it to every other
  reachable node.  **A node never hears its own multicast**, on any
  backend (the simulated LAN still draws the sender's leg of its seeded
  loss and jitter stream, and delivers nothing on it).  A copy would be
  worse than waste: a protocol that takes any inbound frame as progress
  would take its own message for a peer's.  Totem files its own message
  before multicasting it and ignores its own join.
* Deliveries invoke the receiver's ``deliver`` callback with a *frame*
  object exposing at least ``.src`` (sending node id) and ``.payload``
  (the transported object).  Backends may add fields (simulated arrival
  times, real socket addresses); protocol code must not depend on them.
* Delivery is best-effort and unordered across sources; per
  ``(src, dst)`` pair frames arrive in send order (switched Ethernet and
  loopback UDP are both FIFO per path in practice — Totem's token/data
  ordering assumes it).
* A port whose ``up`` flag is False raises
  :class:`~repro.errors.NetworkError` on send and silently drops
  inbound frames (fail-stop interface semantics).
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Sequence


class TransportPort(abc.ABC):
    """One node's attachment point: the sending half of the contract.

    Concrete ports expose the wire statistics the evaluation reads:
    ``frames_sent``, ``frames_received``, ``bytes_sent`` and the ``up``
    flag.
    """

    node_id: str
    up: bool
    frames_sent: int
    frames_received: int
    bytes_sent: int

    @abc.abstractmethod
    def unicast(self, dst: str, payload: Any, size_bytes: int = 128) -> None:
        """Send ``payload`` to the node attached as ``dst``.

        ``size_bytes`` is the simulated backend's frame-size estimate for
        its latency model; byte-level backends ignore it and count the
        real encoded size instead.
        """

    @abc.abstractmethod
    def multicast(self, payload: Any, size_bytes: int = 128) -> None:
        """Send ``payload`` to every other attached node; the sender
        never hears it (see the contract)."""

    def multicast_many(self, payloads: Sequence[Any], sizes: Sequence[int]) -> None:
        """Multicast a token visit's ``payloads`` in order: one :meth:`multicast`
        each (the simulated LAN's cost model) unless a backend packs them."""
        for payload, size_bytes in zip(payloads, sizes):
            self.multicast(payload, size_bytes)


class Transport(abc.ABC):
    """A network connecting attached nodes (the topology half)."""

    @abc.abstractmethod
    def attach(self, node_id: str, deliver: Callable[[Any], None]) -> TransportPort:
        """Attach a node; ``deliver`` is invoked for each arriving frame."""

    @abc.abstractmethod
    def detach(self, node_id: str) -> None:
        """Remove a node's attachment; frames in flight are dropped."""

    def close(self) -> None:
        """Release backend resources (sockets).  No-op for the simulator."""
