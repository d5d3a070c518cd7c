"""Asyncio UDP backend of the transport contract.

Carries the frames of :mod:`repro.net.wire` over real datagram sockets
on an asyncio event loop.  The paper's broadcast LAN is emulated on
localhost (or any unicast network) by **per-peer unicast fan-out**: a
multicast is sent as one datagram per *other* peer in the address book,
a token visit's messages as one :class:`~repro.net.wire.Batch` datagram.
A node does not send itself datagrams: Totem files its own message
before multicasting it and ignores its own join, so the copy would be
encoded, sent, received, decoded and dropped as a duplicate — a quarter
of all datagrams on a three-node ring.  No backend hands a sender its own
multicast (the contract in :mod:`repro.net.transport`).

Sockets are plain non-blocking ``SOCK_DGRAM`` sockets serviced via
``loop.add_reader``, so attaching is synchronous (no coroutine needed
during setup, before the loop runs).  Binding to port 0 yields an
ephemeral port; the bound address is published into the shared address
book at attach time, which is how an in-process
:class:`~repro.net.testbed.LiveTestbed` wires N nodes together without
fixed ports: attach everything first, then start traffic.

Datagrams that fail frame validation (foreign senders, truncation, stale
wire versions) are counted and dropped — a live port is exposed to
arbitrary traffic, and dropping is the only safe response.
"""

from __future__ import annotations

import socket
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from .. import obs
from ..errors import FrameError, NetworkError, TransportError
from ..obs import Bus
from ..replication.envelope import Envelope
from ..trace import op_trace_id
from .transport import Transport, TransportPort
from .wire import Batch, decode_frame_ex, encode_frame, encode_payload

Address = Tuple[str, int]
#: The largest datagram a batch fills: under UDP's 65 507-byte limit.
MAX_DATAGRAM = 65_000

#: UdpPort attribute -> the registry family read from it.
COUNTERS = obs.read_counters({
    "frames_sent": ("udp_datagrams_sent_total", "datagrams written per live port"),
    "bytes_sent": ("udp_datagram_bytes_total", "encoded bytes written per live port"),
    "frames_received": ("udp_datagrams_received_total",
                        "valid frames received per live port"),
    "rejected_by_reason": (
        "udp_datagrams_rejected_total",
        "datagrams dropped by frame validation, labelled by rejection reason "
        "(truncated, magic, version, length, source, trace, payload, "
        "trailing, auth-missing, auth-truncated, auth-forged, auth-replay)",
        "reason"),
})


def _op_of(payload: Any) -> Optional[str]:
    """The trace id a frame digest carries: the operation key of the one
    envelope in the frame — bare client traffic, or an ordered Totem
    regular message wrapping one — and None for anything else (a batch,
    a token, a join)."""
    if not isinstance(payload, Envelope):
        payload = getattr(payload, "payload", None)
        if not isinstance(payload, Envelope):
            return None
    return op_trace_id(payload.header.op_key)


def _runs(batch: Batch, frame_size: int):
    """An oversized batch in greedy runs whose frames fit :data:`MAX_DATAGRAM`;
    a run of one item (too big to share a datagram) goes bare, as it would alone."""
    sizes = [4 + len(encode_payload(payload)) for payload in batch]
    room = MAX_DATAGRAM - frame_size + sum(sizes)  # what one run's items may fill
    run, used = [], 0
    for payload, size in zip(batch, sizes):
        if run and used + size > room:
            yield run[0] if len(run) == 1 else Batch(run)
            run, used = [], 0
        run.append(payload)
        used += size
    yield run[0] if len(run) == 1 else Batch(run)


class LiveFrame:
    """One validated frame off the wire.

    Exposes the contract fields (``src``, ``payload``) plus the sender's
    socket address, which the daemon's client gateway uses to route
    replies to callers outside the peer address book.  Slotted: one is
    built per datagram received.
    """

    __slots__ = ("src", "payload", "size_bytes", "addr")

    def __init__(self, src: str, payload: Any, size_bytes: int,
                 addr: Address):
        self.src = src
        self.payload = payload
        self.size_bytes = size_bytes
        self.addr = addr

    def __repr__(self) -> str:
        return (f"LiveFrame(src={self.src!r}, payload={self.payload!r}, "
                f"size_bytes={self.size_bytes}, addr={self.addr})")


class UdpPort(TransportPort):
    """One node's bound UDP socket."""

    def __init__(self, transport: "UdpTransport", node_id: str,
                 deliver: Callable[[LiveFrame], None], sock: socket.socket):
        self.transport = transport
        self.node_id = node_id
        self._deliver = deliver
        self.sock = sock
        #: Shared :class:`~repro.net.auth.WireAuthenticator` (or None):
        #: signs every frame this port sends and verifies every frame it
        #: receives.
        self.auth = transport.auth
        self.up = True
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.frames_rejected = 0
        #: Rejection tallies keyed by :class:`~repro.errors.FrameError`
        #: reason code (read as ``udp_datagrams_rejected_total``).
        self.rejected_by_reason: Dict[str, int] = {}
        transport.metrics.watch(self, COUNTERS, node=node_id)
        self.flight = transport.flight  # fed one digest per frame

    @property
    def address(self) -> Address:
        return self.sock.getsockname()

    # -- sending ----------------------------------------------------------

    def unicast(self, dst: str, payload: Any, size_bytes: int = 128) -> None:
        """Send to one peer.  Unknown peers are dropped, matching the
        simulated LAN's behaviour for detached destinations."""
        self._check_up()
        addr = self.transport.peers.get(dst)
        if addr is None:
            return
        self._send(encode_frame(self.node_id, payload, None, self.auth),
                   addr, payload)

    def multicast(self, payload: Any, size_bytes: int = 128) -> None:
        """Fan out to every *other* peer in the address book: encoded
        once, one datagram each, none to this port's own address.  A
        batch over :data:`MAX_DATAGRAM` goes as the runs of it that fit."""
        self._check_up()
        me = self.node_id
        data = encode_frame(me, payload, None, self.auth)
        if len(data) > MAX_DATAGRAM and type(payload) is Batch:
            for part in _runs(payload, len(data)):
                self.multicast(part)
            return
        send = self._send
        for node_id, addr in self.transport.peers.items():
            if node_id != me:
                send(data, addr, payload)

    def multicast_many(self, payloads: Sequence[Any], sizes: Sequence[int]) -> None:
        """Two or more payloads go to each other peer as one :class:`~repro.net.wire.Batch`
        datagram; one goes bare."""
        if len(payloads) < 2:
            super().multicast_many(payloads, sizes)
        else:
            self.multicast(Batch(payloads))

    def sendto(self, addr: Address, payload: Any) -> None:
        """Send a framed payload to an explicit socket address (used by
        the daemon to answer clients that are not ring peers)."""
        self._check_up()
        self._send(encode_frame(self.node_id, payload, None, self.auth),
                   addr, payload)

    def _check_up(self) -> None:
        if not self.up:
            raise NetworkError(f"interface {self.node_id!r} is down")

    def _send(self, data: bytes, addr: Address, payload: Any = None) -> None:
        try:
            self.sock.sendto(data, addr)
        except OSError as exc:
            raise TransportError(
                f"{self.node_id!r} failed to send to {addr}: {exc}") from exc
        size = len(data)
        self.frames_sent += 1
        self.bytes_sent += size
        if self.flight is not None:
            self.flight.record_frame(
                self.node_id, "tx", addr, type(payload).__name__, size,
                _op_of(payload))

    # -- receiving ---------------------------------------------------------

    def _on_readable(self) -> None:
        # Drain everything available; the reader callback fires once per
        # loop iteration, not once per datagram.
        recvfrom = self.sock.recvfrom
        auth, node_id, deliver = self.auth, self.node_id, self._deliver
        flight = self.flight
        while True:
            try:
                data, addr = recvfrom(65536)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return  # socket closed under us during detach
            if not self.up:
                continue
            try:
                # A trace context a peer still sends is validated, not used.
                src, payload, _trace = decode_frame_ex(
                    data, auth=auth, auth_node=node_id)
            except FrameError as exc:
                self.frames_rejected += 1
                reason = getattr(exc, "reason", "malformed")
                self.rejected_by_reason[reason] = (
                    self.rejected_by_reason.get(reason, 0) + 1)
                continue
            self.frames_received += 1
            if flight is not None:
                flight.record_frame(
                    node_id, "rx", addr, type(payload).__name__,
                    len(data), _op_of(payload))
            for item in payload if type(payload) is Batch else (payload,):
                deliver(LiveFrame(src, item, len(data), addr))


class UdpTransport(Transport):
    """A set of UDP ports sharing one asyncio loop and one address book.

    ``peers`` maps node id to ``(host, port)``.  In multi-process
    deployment it is the daemon's ``--peers`` list; in-process it starts
    empty and fills as nodes attach on ephemeral ports.  A node listed
    in it when it attaches binds its own entry; any other binds an
    ephemeral loopback port.
    """

    def __init__(
        self,
        loop,
        *,
        peers: Optional[Dict[str, Address]] = None,
        auth=None,
        obs: Optional[Bus] = None,
    ):
        self.loop = loop
        #: The bed's registry every port records into.
        self.metrics = (obs or Bus()).metrics
        self.peers: Dict[str, Address] = dict(peers or {})
        #: Optional :class:`~repro.net.auth.WireAuthenticator` shared by
        #: every port on this transport (authenticated Byzantine mode).
        self.auth = auth
        #: The :class:`~repro.obs.flight.FlightRecorder` every port hands
        #: its frame digests to (None = no recorder).
        self.flight = None
        self._ports: Dict[str, UdpPort] = {}

    # -- topology ---------------------------------------------------------

    def attach(self, node_id: str, deliver: Callable[[LiveFrame], None]) -> UdpPort:
        if node_id in self._ports:
            raise NetworkError(f"node {node_id!r} already attached")
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            sock.setblocking(False)
            sock.bind(self.peers.get(node_id, ("127.0.0.1", 0)))
        except OSError as exc:
            sock.close()
            raise TransportError(f"cannot bind {node_id!r}: {exc}") from exc
        port = UdpPort(self, node_id, deliver, sock)
        self.loop.add_reader(sock.fileno(), port._on_readable)
        self._ports[node_id] = port
        # Publish the (possibly ephemeral) bound address so peers can
        # reach it — and the node itself: a singleton ring's token is a
        # unicast to its own successor.
        self.peers[node_id] = port.address
        return port

    def record_frames(self, recorder) -> None:
        """Feed every port's frame digests to ``recorder`` (None stops)."""
        self.flight = recorder
        for port in self._ports.values():
            port.flight = recorder

    def detach(self, node_id: str) -> None:
        port = self._ports.pop(node_id, None)
        if port is None:
            return
        port.up = False
        try:
            self.loop.remove_reader(port.sock.fileno())
        except (OSError, ValueError):
            pass
        port.sock.close()

    def close(self) -> None:
        for node_id in list(self._ports):
            self.detach(node_id)
