"""The ``repro call`` client: UDP RPC against a running group, as a
process on a :class:`~repro.net.kernel.LiveKernel`.

Speaks the same wire format as the ring — a framed ``REQUEST`` envelope
(:mod:`repro.net.wire` around :mod:`repro.replication.codec`) sent to
any daemon's UDP port.  That daemon's gateway injects the request into
the total order; the replica on its node answers.  A caller asking for
N > 1 replies sends a ``REQUEST_ALL``: **every** replica answers via the
ring, the gateway forwards the first reply and keeps the rest, and the
caller re-sends the op id to be sent all recorded, collecting per sender.
This is what makes the client a verification tool and not just an RPC
stub: one call can observe the value every replica computed, so
agreement ("identical group-clock reads") is checked directly.

The caller's socket is a port on the kernel's event loop like any
node's, and :meth:`LiveCaller.call` is a generator for a kernel process:
an in-process bed runs its clients on its own kernel, a script that
talks to daemon processes owns a bare one and
``kernel.run_process(caller.call(...))``.  No thread anywhere.  The
retry loop is built for hostile networks (the chaos suite drives it
through seeded loss and partitions):

* one **deadline** per call, in kernel time; every attempt spends from
  the remaining budget, so a black-holed first server cannot starve the
  rest of the list;
* retries walk the server list with **jittered exponential backoff**
  between full sweeps (deterministic per client id, so chaos runs
  replay);
* a per-server **circuit breaker** skips addresses that keep timing
  out, probing them again after a cooldown (half-open);
* retries re-send the **same** ``(conn_id, seq)`` — the operation id —
  so the daemon gateway can deduplicate re-invocations instead of
  executing them twice.

All of it is surfaced as ``repro.obs`` counters labelled by client.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from .. import obs, trace
from ..errors import NetworkError, RpcTimeout
from ..obs import Bus
from ..replication.envelope import Envelope, MsgType, make_envelope
from ..rpc.messages import Invocation, Result
from ..sim.kernel import Event
from .kernel import LiveKernel
from .udp import Address, LiveFrame, UdpTransport

@dataclass
class CallOutcome:
    """One invocation's replies, keyed by replying replica."""

    method: str
    results: Dict[str, Result]
    latency_us: int
    via: Address
    attempts: int = 1
    #: The operation's key (:func:`repro.trace.op_trace_id`): what
    #: names its timeline in the trace shards.
    trace_id: Optional[str] = None

    @property
    def values(self) -> Dict[str, object]:
        return {sender: result.value for sender, result in self.results.items()}

    @property
    def agreed(self) -> bool:
        """All replies carry the same value (vacuously true for one)."""
        values = list(self.values.values())
        return all(value == values[0] for value in values[1:])

    def first(self) -> Result:
        return next(iter(self.results.values()))


@dataclass
class CallerStats:
    """Aggregate retry behaviour of one caller."""

    calls: int = 0
    retries: int = 0
    backoffs: int = 0
    breaker_skips: int = 0
    failures: int = 0


#: CallerStats field -> the registry family read from it.
COUNTERS = obs.read_counters({
    "calls": ("client_calls_total", "calls issued by live callers"),
    "retries": ("client_retries_total",
                "attempts beyond the first (resend of the same operation id)"),
    "backoffs": ("client_backoffs_total", "backoff sleeps between retry sweeps"),
    "breaker_skips": ("client_breaker_open_total",
                      "circuit-breaker trips (server skipped)"),
    "failures": ("client_call_failures_total", "calls that exhausted their deadline"),
})


@dataclass
class _Breaker:
    """Per-server consecutive-failure tracking."""

    failures: int = 0
    open_until: float = 0.0
    probing: bool = field(default=False, repr=False)
    #: When a held probe token lapses (the claiming call may have hit
    #: its deadline before actually sending the probe; without an expiry
    #: the token would be orphaned and the server never probed again).
    probe_expires: float = field(default=0.0, repr=False)


class _Op:
    """One call in flight: the replies collected so far, and the event
    its process is parked on until it has ``want`` of them."""

    __slots__ = ("want", "results", "waiter")

    def __init__(self):
        self.want = 1
        self.results: Dict[str, Result] = {}
        self.waiter: Optional[Event] = None


class LiveCaller:
    """A client endpoint for a live replica group, on ``kernel``; it
    traces and counts into ``obs`` (the bed's bus when it calls into an
    in-process bed, its own otherwise)."""

    #: Consecutive timeouts before a server's breaker opens.
    BREAKER_THRESHOLD = 3
    #: Seconds a tripped breaker stays open before a half-open probe.
    BREAKER_COOLDOWN = 1.0
    #: Backoff: base * 2^sweep, jittered, capped.
    BACKOFF_BASE = 0.02
    BACKOFF_CAP = 0.5
    #: Seconds from an op's first reply to asking its gateway for the
    #: rest, doubling from there (they follow within a token rotation).
    REASK_BASE = 0.001

    def __init__(
        self,
        kernel: LiveKernel,
        servers: Sequence[Address],
        *,
        group: str = "timesvc",
        client_id: Optional[str] = None,
        obs: Optional[Bus] = None,
    ):
        if not servers:
            raise ValueError("need at least one server address")
        self.kernel = kernel
        self.servers = list(servers)
        self.group = group
        # The client group name doubles as the reply route key on the
        # daemon side and keys the gateway's replay window, so it must be
        # unique per caller — a default id is random, because a pid is
        # recycled and its next owner would be replayed old replies.
        self.client_id = client_id or f"c{os.urandom(6).hex()}"
        self.client_group = f"client.{self.client_id}"
        # A private one-port transport: the socket is drained, its
        # frames validated and counted, exactly as a node's are.
        bus = obs or Bus()
        self.tracer = bus.tracer
        self.metrics = bus.metrics
        self._transport = UdpTransport(kernel.loop, obs=bus)
        self.port = self._transport.attach(self.client_id, self._on_frame)
        self._seq = 0
        #: (conn_id, seq) -> the call waiting for those replies.
        self._pending: Dict[Tuple[int, int], _Op] = {}
        self.stats = CallerStats()
        self.metrics.watch(self.stats, COUNTERS, client=self.client_id)
        self._breakers: Dict[Address, _Breaker] = {
            address: _Breaker() for address in self.servers}
        # Deterministic jitter so chaos runs with a fixed client id replay.
        self._rng = random.Random(f"caller|{self.client_id}")

    # -- calling -------------------------------------------------------

    def call(
        self,
        method: str,
        *args,
        timeout: float = 2.0,
        expect_replies: int = 1,
        conn_id: int = 1,
    ) -> Generator[Event, None, CallOutcome]:
        """Generator: invoke ``method(*args)`` on the group.

        Waits until ``expect_replies`` distinct replicas have answered
        (if more keep arriving they are ignored); past the first reply
        that means asking the gateway again (:meth:`_gather`), within the
        attempt's slice, and returning what is there when it ends.  The
        whole call runs against one deadline ``kernel.now + timeout``;
        within it the caller sweeps the server list (skipping open
        breakers), re-sends the same invocation, and backs off
        exponentially with jitter between sweeps.  Raises
        :class:`~repro.errors.RpcTimeout` when the budget is exhausted.
        Calls from several processes on the kernel may interleave on one
        caller.
        """
        sim = self.kernel
        self._seq += 1
        seq = self._seq
        envelope = make_envelope(
            MsgType.REQUEST_ALL if expect_replies > 1 else MsgType.REQUEST,
            self.client_group,
            self.group,
            conn_id,
            seq,
            self.client_id,
            body=Invocation(method, tuple(args)),
        )
        # Named by its key, as every hop names it: retries share it.
        trace_id = trace.op_trace_id(envelope.header.op_key)
        self.stats.calls += 1
        started = sim.now
        if self.tracer.enabled:
            self.tracer.emit("op.send", self.client_id, trace=trace_id,
                             method=method, t=started)

        deadline = started + timeout
        attempts = 0
        sweep = 0
        op = self._pending[(conn_id, seq)] = _Op()
        try:
            while sim.now < deadline:
                candidates = self._sweep_order(sim.now)
                if not candidates:
                    # Every breaker is open; the earliest half-open probe
                    # is still the best move — wait for it (bounded by
                    # the deadline).
                    reopen = min(b.open_until for b in self._breakers.values())
                    wait = min(reopen, deadline) - sim.now
                    if wait > 0:
                        yield sim.timeout(wait)
                    candidates = self._sweep_order(sim.now,
                                                   ignore_breakers=True)
                for position, address in enumerate(candidates):
                    remaining = deadline - sim.now
                    if remaining <= 0:
                        break
                    # First sweep splits the remaining budget across the
                    # untried servers; later sweeps give each probe the
                    # backoff-scaled slice, never more than what's left.
                    untried = max(len(candidates) - position, 1)
                    slice_s = remaining / untried if sweep == 0 else min(
                        remaining, max(0.1, self.BACKOFF_BASE * (2 ** sweep)))
                    attempts += 1
                    if attempts > 1:
                        self.stats.retries += 1
                    try:
                        self.port.sendto(address, envelope)
                    except NetworkError:
                        self._record_failure(address)
                        continue
                    yield from self._gather(op, expect_replies, address,
                                            envelope, slice_s)
                    if op.results:
                        self._record_success(address)
                        finished = sim.now
                        if self.tracer.enabled:
                            self.tracer.emit(
                                "op.reply_recv", self.client_id,
                                trace=trace_id, replies=len(op.results),
                                t=finished)
                        return CallOutcome(
                            method, op.results,
                            int((finished - started) * 1_000_000), address,
                            attempts=attempts, trace_id=trace_id)
                    self._record_failure(address)
                sweep += 1
                remaining = deadline - sim.now
                if remaining <= 0:
                    break
                pause = min(
                    self._rng.uniform(0.5, 1.0)
                    * min(self.BACKOFF_BASE * (2 ** sweep), self.BACKOFF_CAP),
                    remaining,
                )
                if pause > 0:
                    self.stats.backoffs += 1
                    yield sim.timeout(pause)
        finally:
            del self._pending[(conn_id, seq)]
        self.stats.failures += 1
        raise RpcTimeout(
            f"no reply to {self.group}.{method} from any of {self.servers} "
            f"within {timeout:.3f}s ({attempts} attempts)")

    # -- breaker ---------------------------------------------------------

    def _sweep_order(self, now: float, *,
                     ignore_breakers: bool = False) -> List[Address]:
        """Servers to try this sweep, open breakers skipped.

        A breaker past its cooldown admits exactly **one** half-open
        probe: the first sweep to arrive takes the probe token
        (``probing = True``) and later sweeps — of this call or of one
        interleaved with it on the kernel — keep skipping until that
        probe resolves via :meth:`_record_failure` /
        :meth:`_record_success`.  Without the token, every call that
        swept during the half-open window would hammer a
        still-recovering server with its own probe, defeating the point
        of the breaker.
        """
        order: List[Address] = []
        for address in self.servers:
            breaker = self._breakers[address]
            if ignore_breakers or breaker.failures < self.BREAKER_THRESHOLD:
                order.append(address)
            elif now >= breaker.open_until and (
                    not breaker.probing or now >= breaker.probe_expires):
                breaker.probing = True
                breaker.probe_expires = now + self.BREAKER_COOLDOWN
                order.append(address)
            else:
                self.stats.breaker_skips += 1
        return order

    def _record_failure(self, address: Address) -> None:
        breaker = self._breakers[address]
        breaker.failures += 1
        if breaker.failures >= self.BREAKER_THRESHOLD:
            breaker.open_until = self.kernel.now + self.BREAKER_COOLDOWN
        breaker.probing = False

    def _record_success(self, address: Address) -> None:
        breaker = self._breakers[address]
        breaker.failures = 0
        breaker.open_until = 0.0
        breaker.probing = False

    # -- reply collection ------------------------------------------------

    def _collect(self, op: _Op, want: int,
                 wait_s: float) -> Generator[Event, None, None]:
        """Park until ``op`` has ``want`` replies or ``wait_s`` passes,
        whichever is first."""
        if len(op.results) >= want or wait_s <= 0:
            return
        op.want = want
        op.waiter = waiter = self.kernel.event()
        timer = self.kernel.schedule(
            wait_s, lambda: waiter.triggered or waiter.succeed())
        try:
            yield waiter
        finally:
            timer.cancel()
            op.waiter = None

    def _gather(self, op: _Op, expect: int, address: Address,
                envelope: Envelope,
                slice_s: float) -> Generator[Event, None, None]:
        """Park until ``op`` has the ``expect`` replies or the attempt's
        ``slice_s`` passes.  The gateway forwards the first reply and
        records the rest: past it the operation id is re-sent — answered
        from the record, not executed again — ``REASK_BASE`` later and
        at doubling intervals (``stats.retries`` counts each asking)."""
        slice_end = self.kernel.now + slice_s
        yield from self._collect(op, 1, slice_s)
        reask_s = self.REASK_BASE
        while 0 < len(op.results) < expect:
            left = slice_end - self.kernel.now
            yield from self._collect(op, expect, min(reask_s, left))
            if len(op.results) >= expect or left <= reask_s:
                return
            self.stats.retries += 1
            try:
                self.port.sendto(address, envelope)
            except NetworkError:
                return
            reask_s *= 2

    def _on_frame(self, frame: LiveFrame) -> None:
        envelope = frame.payload
        if not (isinstance(envelope, Envelope)
                and envelope.header.msg_type is MsgType.REPLY):
            return
        header = envelope.header
        op = self._pending.get((header.conn_id, header.msg_seq_num))
        if op is None:
            return  # another replica's reply to a call already answered
        # First reply per replica wins.  A retry re-sends the same
        # operation id; the gateway deduplicates it, but if two
        # different gateways both injected it, mixing sender A's
        # first-execution reply with sender B's second-execution reply
        # would fake a disagreement.
        op.results.setdefault(envelope.sender, envelope.body)
        waiter = op.waiter
        if (waiter is not None and not waiter.triggered
                and len(op.results) >= op.want):
            waiter.succeed()

    def close(self) -> None:
        self._transport.close()

    def __enter__(self) -> "LiveCaller":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
