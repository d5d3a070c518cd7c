"""The ``repro serve`` node daemon: one group member per OS process.

Hosts one live node — Totem ring member, group runtime, and a replica of
the time-serving application — on an asyncio event loop, reachable over
UDP.  Three of these processes on localhost are the paper's testbed with
real message passing (the LLFT deployment model from the same group):

.. code-block:: console

   repro serve --node n0 --peers n0=127.0.0.1:9000,n1=127.0.0.1:9001,n2=127.0.0.1:9002
   repro serve --node n1 --peers ...   # same peer map on every node
   repro serve --node n2 --peers ...
   repro call gettimeofday --connect 127.0.0.1:9000

Client traffic rides the same wire format as the ring: a client sends a
framed ``REQUEST`` envelope straight to any daemon's UDP port.  The
**client gateway** intercepts such frames before Totem sees them (bare
envelopes are not Totem wire messages), records the sender's socket
address, and injects the request into the total order through a local
endpoint for the client's group — exactly what :class:`~repro.rpc.client.RpcClient`
does in-process.  The replica in this process alone answers, handing its
reply to the gateway with nothing ordered (``docs/algorithm.md``).  A
caller that wants every replica's answer (``repro call --expect 3``
verifies the replies are identical) sends a ``REQUEST_ALL``: every member
replies through the total order, the gateway forwards the first reply of
the operation and keeps the rest, and the caller asks again with the
same operation id and is sent everything recorded so far.
"""

from __future__ import annotations

import sys
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .. import obs, trace
from ..control.admission import (
    OVERLOADED,
    AdmissionConfig,
    AdmissionController,
    overloaded_value,
)
from ..errors import ConfigurationError
from ..obs import Bus
from ..obs.flight import FlightRecorder
from ..obs.crossnode import TraceShardWriter
from ..obs.http import MetricsHttpServer
from ..replication.envelope import Envelope, MsgType, make_envelope
from ..replication.group import GroupEndpoint, GroupRuntime
from ..replication.replica import Application
from ..rpc.messages import Result
from ..sim.clock import HardwareClock
from .udp import Address, LiveFrame


class TimeApp(Application):
    """The daemon's served application: the paper's measurement server.

    ``gettimeofday`` answers with the *group* clock — identical on every
    replica by construction; ``physical`` answers with the replica's own
    physical clock — different on every replica, the Figure-1 hazard the
    service exists to remove.  Having both lets ``repro call`` demo the
    difference against a running group.
    """

    def gettimeofday(self, ctx, after_us=None):
        value = yield ctx.gettimeofday(after_us=after_us)
        return {"sec": value.seconds, "usec": value.microseconds,
                "micros": value.micros}

    def physical(self, ctx):
        yield ctx.compute(0.0)
        value = ctx.physical_clock()
        return {"sec": value.seconds, "usec": value.microseconds,
                "micros": value.micros}

    def ping(self, ctx):
        yield ctx.compute(0.0)
        return "pong"


@dataclass
class DaemonConfig:
    """Everything one ``repro serve`` process needs."""

    node_id: str
    #: Full ring address book, *including this node* (every daemon gets
    #: the same map; each binds its own entry).
    peers: Dict[str, Address]
    group: str = "timesvc"
    style: str = "active"
    #: The replica's ``coalesce`` and the time service's ``fast_path``
    #: and ``max_staleness_us``, as :meth:`~repro.testbed.Testbed.deploy`
    #: takes (and defaults) them.
    time_options: Dict[str, object] = field(default_factory=dict)
    #: Injected wall-clock error (the live Figure-1 inconsistency).
    clock_epoch_us: int = 0
    clock_drift_ppm: float = 0.0
    #: Join an already-running group (recovering/added replica).
    join_existing: bool = False
    #: Serve ``/metrics`` (Prometheus text) on this port (None = off).
    metrics_port: Optional[int] = None
    #: Write per-node trace shards (JSONL) into this directory and keep
    #: the flight recorder running (None = off).
    trace_dir: Optional[str] = None
    #: Shared secret for authenticated (Byzantine-tolerant) rings: every
    #: daemon derives the same HMAC key, signs every ring frame, and the
    #: time service arms its winner sanity filter (None = off).  All
    #: peers must agree — an unauthenticated peer's frames are rejected.
    auth_key: Optional[str] = None


#: ClientGateway attribute -> the registry family read from it.
GATEWAY_COUNTERS = obs.read_counters({
    "requests_injected": ("gateway_requests_total",
                          "client requests injected into the order"),
    "requests_deduplicated": ("gateway_duplicate_requests_total",
                              "client retries deduplicated by operation id"),
    "replies_replayed": ("gateway_replies_replayed_total",
                         "recorded replies re-sent to a retrying client"),
    "replies_suppressed": ("gateway_duplicate_replies_total",
                           "later replicas' replies recorded, not forwarded"),
    "replies_divergent": ("gateway_divergent_replies_total",
                          "recorded replies that differ from the forwarded"),
    "dedup_evictions": (
        "gateway_dedup_evictions_total",
        "idempotency-window entries evicted, by reason (window|ttl)",
        "reason"),
})

#: An operation id as seen by the gateway.  The *service* group is part
#: of the identity: a sharded deployment fronts many groups, and the
#: same client may reuse (conn, seq) counters against different shards
#: — without the group a retry against shard B could replay shard A's
#: recorded reply.
_OpKey = Tuple[str, str, int, int]  # (service group, client group, conn, seq)


class ClientGateway:
    """Bridges off-ring callers into the group's total order.

    Client retries re-send the same operation id ``(conn_id, seq)``;
    executing them again would be both wasteful and observable (a second
    execution returns a *later* group-clock value, so mixing replies
    across executions could fake staleness or disagreement).  The
    gateway therefore keeps a bounded idempotency window: a repeated
    operation id refreshes the reply route and replays the recorded
    replies instead of re-entering the total order.

    The caller gets an operation's **first** reply, as from
    :class:`~repro.rpc.client.RpcClient` in-process; the later replicas'
    are recorded under the operation id, compared with the forwarded one
    (``replies_divergent``) and sent only on asking again.  An operation
    no longer in the window has nothing to be replayed from, so every
    reply to it is forwarded.

    The window is bounded **two ways**: by entry count (a zipf-heavy
    client population with millions of one-shot identities would
    otherwise grow it without limit) and by age (an entry older than
    ``DEDUP_TTL_S`` no longer protects anything — the client's own
    retry deadline has long expired — so holding it only wastes memory).
    Oldest entries are evicted first and every eviction is counted.
    """

    #: Operation ids remembered for deduplication (oldest evicted first).
    DEDUP_WINDOW = 512
    #: Seconds an operation id stays in the window before it expires.
    #: Far beyond any client's retry deadline (LiveCaller defaults 2 s).
    DEDUP_TTL_S = 60.0
    #: Reply routes remembered (client group -> last socket address).
    ROUTES_CAP = 8192

    def __init__(self, runtime: GroupRuntime, port, *,
                 node_id: str = "?",
                 admission: Optional[AdmissionController] = None) -> None:
        self.runtime = runtime
        self.tracer = runtime.tracer
        self.metrics = runtime.metrics
        self.port = port
        self.node_id = node_id
        #: Shed-before-collapse controller (None = admit everything).
        self.admission = admission
        #: client group -> last known socket address (LRU-bounded).
        self.routes: "OrderedDict[str, Address]" = OrderedDict()
        self._endpoints: Dict[str, GroupEndpoint] = {}
        #: operation id -> (kernel time last asked for: the TTL's clock,
        #: replies delivered so far: replayed on retry), last asked last.
        self._seen: "OrderedDict[_OpKey, Tuple[float, List[Envelope]]]" = (
            OrderedDict())
        self.requests_injected = 0
        self.requests_deduplicated = 0
        self.requests_shed = 0
        self.replies_forwarded = 0
        self.replies_replayed = 0
        self.replies_suppressed = 0
        self.replies_divergent = 0
        #: Idempotency-window entries evicted, by reason (window, ttl).
        self.dedup_evictions: Dict[str, int] = {}
        self.metrics.watch(self, GATEWAY_COUNTERS, node=node_id)

    def handle(self, frame: LiveFrame) -> None:
        envelope: Envelope = frame.payload
        header = envelope.header
        client_group = header.src_grp
        self._record_route(client_group, frame.addr)
        now = self.runtime.sim.now
        self._expire_seen(now)
        key: _OpKey = header.op_key
        entry = self._seen.get(key)
        if self.tracer.enabled:
            self.tracer.emit("op.gateway", self.node_id,
                             trace=trace.op_trace_id(key),
                             dedup=entry is not None, t=now)
        if entry is not None:
            # A retry of an operation already in (or through) the order:
            # do not execute it again — replay what the group already
            # answered to the refreshed route.  The retry also refreshes
            # the entry's age: the window stays last-touch ordered, so
            # TTL expiry below can pop strictly from the front.
            recorded = entry[1]
            self._seen[key] = (now, recorded)
            self._seen.move_to_end(key)
            self.requests_deduplicated += 1
            for reply in recorded:
                self.port.sendto(frame.addr, reply)
                self.replies_replayed += 1
            return
        self._seen[key] = (now, [])
        while len(self._seen) > self.DEDUP_WINDOW:
            self._evict_oldest("window")
        if self.admission is None:
            self._dispatch(client_group, envelope)
        else:
            self.admission.submit(
                client_group, key,
                lambda: self._dispatch(client_group, envelope),
                lambda retry_after_s: self._shed(key, frame.addr, retry_after_s))

    def _dispatch(self, client_group: str, envelope: Envelope) -> None:
        endpoint = self._endpoints.get(client_group)
        if endpoint is None:
            endpoint = self._endpoints[client_group] = (
                self.runtime.endpoint(client_group))
            endpoint.on_message = self._forward
            endpoint.join()
        endpoint.mcast(envelope)
        self.requests_injected += 1

    def _shed(self, key: _OpKey, addr: Address, retry_after_s: float) -> None:
        """Answer ``Overloaded`` instead of entering the order.

        The operation never executed, so it must also leave the
        idempotency window — the client's *retry* (after backing off)
        is a fresh admission attempt, not a replay of nothing.
        """
        self._seen.pop(key, None)
        # A reply's (service group, client group, conn, seq) is the key.
        reply = make_envelope(
            MsgType.REPLY, *key, self.node_id,
            body=Result(value=overloaded_value(retry_after_s),
                        error=OVERLOADED))
        self.port.sendto(addr, reply)
        self.requests_shed += 1

    def _record_route(self, client_group: str, addr: Address) -> None:
        self.routes[client_group] = addr
        self.routes.move_to_end(client_group)
        while len(self.routes) > self.ROUTES_CAP:
            self.routes.popitem(last=False)

    def _expire_seen(self, now: float) -> None:
        horizon = now - self.DEDUP_TTL_S
        while self._seen and next(iter(self._seen.values()))[0] <= horizon:
            self._evict_oldest("ttl")

    def _evict_oldest(self, reason: str) -> None:
        self._seen.popitem(last=False)
        self.dedup_evictions[reason] = self.dedup_evictions.get(reason, 0) + 1

    def _forward(self, envelope: Envelope) -> None:
        header = envelope.header
        key: _OpKey = header.op_key
        entry = self._seen.get(key)
        if entry is not None:
            recorded = entry[1]
            recorded.append(envelope)
            if len(recorded) > 1:
                # A later replica's reply: no encode, no MAC, no datagram
                # — only the comparison the caller used to make.
                self.replies_suppressed += 1
                if envelope.body != recorded[0].body:
                    self.replies_divergent += 1
                return
        if self.admission is not None:
            # First reply for the op frees its admission slot and pumps
            # the bounded queues, route or no route (idempotent for an
            # op out of the window, whose every reply comes this way).
            self.admission.complete(key)
        address = self.routes.get(header.dst_grp)
        if address is None:
            return
        self.port.sendto(address, envelope)
        self.replies_forwarded += 1
        if self.tracer.enabled:
            self.tracer.emit("op.reply", self.node_id,
                             trace=trace.op_trace_id(key),
                             replica=envelope.sender, t=self.runtime.sim.now)


class NodeDaemon:
    """One live group member: a one-node :class:`LiveTestbed` given the
    whole ring's address book — the stack ``bench`` and the live tests
    build, node for node — plus a process's lifecycle: the quorum-gated
    join, signals, the observability sidecars, failure reports.  ``obs``
    is the bus the bed records into (the command's, or the bed's own)."""

    def __init__(self, config: DaemonConfig, obs: Optional[Bus] = None):
        # The bed imports this module's gateway.
        from .testbed import LiveTestbed

        if config.node_id not in config.peers:
            raise KeyError(
                f"--peers must include this node ({config.node_id!r})")
        self.config = config
        self.bed = LiveTestbed(node_ids=[config.node_id], peers=config.peers,
                               auth_secret=config.auth_key, obs=obs)
        self.kernel = self.bed.kernel
        self.node = self.bed.node(config.node_id)
        try:
            # The injected clock error is this daemon's to say, not the
            # bed's seed's to draw; the clock checks it.
            self.node.clock = HardwareClock(
                self.kernel, epoch_us=config.clock_epoch_us,
                drift_ppm=config.clock_drift_ppm, name=self.node.clock.name)
        except ConfigurationError:
            self.bed.shutdown()
            raise
        self.processor = self.bed.processors[config.node_id]
        # Shed-before-collapse admission control (bounded queues, fair
        # dequeue, typed Overloaded replies; docs/operations.md) is on.
        self.gateway = self.bed.install_gateway(config.node_id,
                                                AdmissionConfig())
        self.replica = self.bed.deploy(
            config.group, TimeApp, [config.node_id], style=config.style,
            byzantine=config.auth_key is not None,
            join_existing=config.join_existing, **config.time_options,
        )[config.node_id]
        self._metrics_server: Optional[MetricsHttpServer] = None
        self._shard_writer: Optional[TraceShardWriter] = None
        #: This node's flight recorder (with ``trace_dir`` only).
        self.flight: Optional[FlightRecorder] = None

    @property
    def address(self) -> Address:
        return self.node.address

    # -- lifecycle -----------------------------------------------------

    def _join_when_quorate(self) -> None:
        """Join the group once the ring holds a majority of the peers.

        Daemons boot at genuinely different wall-clock times, so a node
        may briefly sit in a singleton ring before the rings merge.
        Joining the group from such a minority ring would be rejected by
        the primary-component rule anyway (the replica would poll with
        GET_STATE until the merge); waiting for quorum keeps the group
        joins in one merged total order and the cold start clean.
        """
        members = self.processor.members
        if 2 * len(members) > len(self.config.peers):
            self._log(f"ring quorate {members}; joining group")
            self.replica.start()
        else:
            self.kernel.schedule(0.05, self._join_when_quorate)

    def serve_forever(self) -> None:
        """Start the stack and run the loop until stopped (SIGTERM/INT)."""
        import signal

        loop = self.kernel.loop
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, loop.stop)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        self.start_observability()
        self.processor.start()
        self._join_when_quorate()
        self._log(f"serving group {self.config.group!r} "
                  f"({self.config.style}) on {self.address[0]}:{self.address[1]}")
        self.kernel.schedule(1.0, self._report_failures)
        try:
            loop.run_forever()
        except BaseException:
            self._dump_flight("daemon-crash")
            raise
        finally:
            self.shutdown()

    def start_observability(self) -> None:
        """Bring up the observability the config asks for, on the bed's
        bus: the metrics registry, scrape endpoint, trace shards, flight
        ring.  Call it before the loop runs: the endpoint is bound
        here."""
        config = self.config
        bus = self.bed.obs
        if config.metrics_port is not None or config.trace_dir is not None:
            bus.metrics.enable()
        if config.metrics_port is not None:
            server = MetricsHttpServer(bus.metrics, port=config.metrics_port)
            try:
                self.kernel.loop.run_until_complete(server.start())
            except OSError as exc:
                self._log(f"metrics endpoint failed to start: {exc!r}")
            else:
                self._metrics_server = server
                self._log(f"metrics endpoint on port {server.bound_port}")
        if config.trace_dir is not None:
            self._shard_writer = TraceShardWriter(config.trace_dir, bus.tracer)
            self.flight = FlightRecorder().start(bus.tracer)
            self.bed.transport.record_frames(self.flight)

    def _report_failures(self) -> None:
        failures = self.kernel.drain_failures()
        for failure in failures:
            self._log(f"unhandled protocol failure: {failure!r}")
        if failures and self.config.trace_dir is not None:
            self._dump_flight("protocol-failure",
                              context={"failures": [repr(f) for f in failures]})
        if self.node.alive:
            self.kernel.schedule(1.0, self._report_failures)

    def _dump_flight(self, reason: str, context: Optional[Dict] = None) -> None:
        if self.flight is None or not self.flight.enabled:
            return
        from pathlib import Path

        path = (Path(self.config.trace_dir)
                / f"flight-{self.config.node_id}-{reason}.json")
        dumped = self.flight.dump(
            path, reason=reason,
            context={"node": self.config.node_id, **(context or {})})
        self._log(f"flight recorder dumped to {dumped}")

    def _log(self, message: str) -> None:
        print(f"[repro serve {self.config.node_id}] {message}",
              file=sys.stderr, flush=True)

    def shutdown(self) -> None:
        """Stop the stack and its sidecars and close the bed (idempotent).
        The metrics endpoint closes on the loop before the bed closes it."""
        self.processor.stop()
        if self._metrics_server is not None:
            self.kernel.loop.run_until_complete(self._metrics_server.stop())
            self._metrics_server = None
        if self._shard_writer is not None:
            self._shard_writer.close()
            self._shard_writer = None
            self.flight.stop()
        self.bed.shutdown()
