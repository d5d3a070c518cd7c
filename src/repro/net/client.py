"""The ``repro call`` client: blocking UDP RPC against a running group.

Speaks the same wire format as the ring — a framed ``REQUEST`` envelope
(:mod:`repro.net.wire` around :mod:`repro.replication.codec`) sent to
any daemon's UDP port.  That daemon's gateway injects the request into
the total order; with active replication **every** replica answers, the
gateway forwards each reply to this socket, and the caller collects them
per sender.  This is what makes the client a verification tool and not
just an RPC stub: one call observes the value every replica computed,
so agreement ("identical group-clock reads") is checked directly.

No kernel, no asyncio — a plain blocking socket with a deadline, usable
from scripts and CI.  The retry loop is built for hostile networks (the
chaos suite drives it through seeded loss and partitions):

* one **monotonic deadline** per call; every attempt spends from the
  remaining budget, so a black-holed first server cannot starve the
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
import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from .. import obs, trace
from ..control.admission import is_overloaded, retry_after_of
from ..errors import RpcTimeout
from ..replication.envelope import MsgType, make_envelope
from ..rpc.messages import Invocation, Result
from .udp import Address
from .wire import FrameError, decode_frame, encode_frame

@dataclass
class CallOutcome:
    """One invocation's replies, keyed by replying replica."""

    method: str
    results: Dict[str, Result]
    latency_us: int
    via: Address
    attempts: int = 1
    #: Trace id carried on the wire (None when tracing was disabled).
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
COUNTERS = obs.REGISTRY.read_counters({
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


class LiveCaller:
    """A blocking client endpoint for a live replica group."""

    #: Consecutive timeouts before a server's breaker opens.
    BREAKER_THRESHOLD = 3
    #: Seconds a tripped breaker stays open before a half-open probe.
    BREAKER_COOLDOWN = 1.0
    #: Backoff: base * 2^sweep, jittered, capped.
    BACKOFF_BASE = 0.02
    BACKOFF_CAP = 0.5

    def __init__(
        self,
        servers: Sequence[Address],
        *,
        group: str = "timesvc",
        client_id: Optional[str] = None,
        bind_host: str = "127.0.0.1",
    ):
        if not servers:
            raise ValueError("need at least one server address")
        self.servers = list(servers)
        self.group = group
        # The client group name doubles as the reply route key on the
        # daemon side, so it must be unique per caller process.
        self.client_id = client_id or f"c{os.getpid()}"
        self.client_group = f"client.{self.client_id}"
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind((bind_host, 0))
        self._seq = 0
        self.stats = CallerStats()
        obs.REGISTRY.watch(self.stats, COUNTERS, client=self.client_id)
        self._breakers: Dict[Address, _Breaker] = {
            address: _Breaker() for address in self.servers}
        # Breaker state is shared when callers issue calls from several
        # threads (the open-loop loadgen does); the lock keeps the
        # half-open probe token single-holder.
        self._breaker_lock = threading.Lock()
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
    ) -> CallOutcome:
        """Invoke ``method(*args)`` on the group.

        Waits until ``expect_replies`` distinct replicas have answered
        (if more keep arriving they are ignored).  The whole call runs
        against one monotonic deadline ``now + timeout``; within it the
        caller sweeps the server list (skipping open breakers), re-sends
        the same invocation, and backs off exponentially with jitter
        between sweeps.  Raises :class:`~repro.errors.RpcTimeout` when
        the budget is exhausted.
        """
        self._seq += 1
        seq = self._seq
        envelope = make_envelope(
            MsgType.REQUEST,
            self.client_group,
            self.group,
            conn_id,
            seq,
            self.client_id,
            body=Invocation(method, tuple(args)),
        )
        # A fresh trace context per operation (not per attempt: retries
        # re-send the same frame, so the same trace id rides every copy).
        tctx = None
        if trace.TRACER.enabled:
            tctx = trace.TraceContext(trace.new_trace_id(self._rng),
                                      f"client.{self.client_id}")
        data = encode_frame(self.client_id, envelope, trace=tctx)
        self.stats.calls += 1
        if tctx is not None:
            trace.emit("op.send", self.client_id, trace=tctx.trace_id,
                       op_group=self.client_group, conn=conn_id, seq=seq,
                       method=method, t=time.monotonic())

        started = time.monotonic()
        deadline = started + timeout
        attempts = 0
        sweep = 0
        while True:
            now = time.monotonic()
            if now >= deadline:
                break
            candidates = self._sweep_order(now)
            if not candidates:
                # Every breaker is open; the earliest half-open probe is
                # still the best move — wait for it (bounded by deadline).
                reopen = min(b.open_until for b in self._breakers.values())
                self._sleep(min(reopen, deadline) - now)
                candidates = self._sweep_order(time.monotonic(),
                                               ignore_breakers=True)
            for position, address in enumerate(candidates):
                now = time.monotonic()
                remaining = deadline - now
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
                    self.sock.sendto(data, address)
                except OSError:
                    self._record_failure(address)
                    continue
                results = self._collect(conn_id, seq, expect_replies,
                                        deadline=now + slice_s)
                if results:
                    self._record_success(address)
                    latency_us = int((time.monotonic() - started) * 1_000_000)
                    if tctx is not None:
                        trace.emit("op.reply_recv", self.client_id,
                                   trace=tctx.trace_id, conn=conn_id, seq=seq,
                                   replies=len(results), t=time.monotonic())
                    return CallOutcome(method, results, latency_us, address,
                                       attempts=attempts,
                                       trace_id=tctx.trace_id if tctx else None)
                self._record_failure(address)
            sweep += 1
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            pause = min(
                self._rng.uniform(0.5, 1.0)
                * min(self.BACKOFF_BASE * (2 ** sweep), self.BACKOFF_CAP),
                remaining,
            )
            if pause > 0:
                self.stats.backoffs += 1
                self._sleep(pause)
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
        (``probing = True``) and later sweeps — from this thread or a
        concurrent one — keep skipping until that probe resolves via
        :meth:`_record_failure` / :meth:`_record_success`.  Without the
        token, every caller thread that swept during the half-open
        window would hammer a still-recovering server with its own
        probe, defeating the point of the breaker.
        """
        order: List[Address] = []
        with self._breaker_lock:
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
        with self._breaker_lock:
            breaker = self._breakers[address]
            breaker.failures += 1
            if breaker.failures >= self.BREAKER_THRESHOLD:
                breaker.open_until = time.monotonic() + self.BREAKER_COOLDOWN
            breaker.probing = False

    def _record_success(self, address: Address) -> None:
        with self._breaker_lock:
            breaker = self._breakers[address]
            breaker.failures = 0
            breaker.open_until = 0.0
            breaker.probing = False

    @staticmethod
    def _sleep(duration: float) -> None:
        if duration > 0:
            time.sleep(duration)

    # -- reply collection ------------------------------------------------

    def _collect(self, conn_id: int, seq: int, expect_replies: int,
                 deadline: float) -> Dict[str, Result]:
        results: Dict[str, Result] = {}
        while len(results) < expect_replies:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            self.sock.settimeout(remaining)
            try:
                data, _addr = self.sock.recvfrom(65536)
            except socket.timeout:
                break
            except OSError:
                break
            try:
                _src, envelope = decode_frame(data)
            except FrameError:
                continue
            header = envelope.header
            if (header.msg_type is MsgType.REPLY
                    and header.conn_id == conn_id
                    and header.msg_seq_num == seq):
                # First reply per replica wins.  A retry re-sends the
                # same operation id; the gateway deduplicates it, but if
                # two different gateways both injected it, mixing sender
                # A's first-execution reply with sender B's second-
                # execution reply would fake a disagreement.
                results.setdefault(envelope.sender, envelope.body)
        return results

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "LiveCaller":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ThreadedCallers:
    """Closed-loop load from threads: each caller keeps one
    ``gettimeofday`` in flight on its session floor while the main
    thread pumps the bed (``LiveTestbed.pump``).  A typed ``Overloaded``
    reply counts as ``shed`` and its thread sleeps the retry-after hint:
    shedding relieves a gateway only if shed clients back off."""

    #: Per-call deadline, seconds.
    TIMEOUT_S = 1.5

    def __init__(self, callers: Sequence[LiveCaller], *,
                 on_reply: Optional[Callable[..., None]] = None,
                 pace_s: float = 0.0):
        self.callers = list(callers)
        #: Called on the caller's thread for every served call:
        #: ``on_reply(client_id, value_us, started, finished, outcome)``.
        self.on_reply = on_reply
        self.pace_s = pace_s
        self._stop = threading.Event()
        #: One per thread, so no counter is shared; report() sums them.
        self._tallies = [Counter() for _ in self.callers]
        self._threads = [
            threading.Thread(target=self._run, args=(caller, tally),
                             name=caller.client_id, daemon=True)
            for caller, tally in zip(self.callers, self._tallies)]

    def _run(self, caller: LiveCaller, tally: Counter) -> None:
        last_us: Optional[int] = None
        while not self._stop.is_set():
            started = time.monotonic()
            tally["calls"] += 1
            try:
                outcome = caller.call("gettimeofday", last_us,
                                      timeout=self.TIMEOUT_S)
            except RpcTimeout:
                tally["errors"] += 1
                continue
            finished = time.monotonic()
            result = outcome.first()
            if is_overloaded(result):
                tally["shed"] += 1
                self._stop.wait(retry_after_of(result))
            elif not result.ok:
                tally["errors"] += 1
            else:
                tally["served"] += 1
                last_us = result.value["micros"]
                if self.on_reply is not None:
                    self.on_reply(caller.client_id, last_us,
                                  started, finished, outcome)
                self._stop.wait(self.pace_s)

    def start(self) -> None:
        for thread in self._threads:
            thread.start()

    def stop(self) -> None:
        self._stop.set()

    @property
    def running(self) -> bool:
        """True while any caller thread is still in its loop."""
        return any(thread.is_alive() for thread in self._threads)

    def join(self) -> None:
        """Wait for the threads (one blocked in a last call returns
        within its call timeout plus scheduling slack) and close the
        callers' sockets."""
        for thread in self._threads:
            thread.join(timeout=self.TIMEOUT_S + 2.0)
        for caller in self.callers:
            caller.close()

    def report(self) -> Dict[str, object]:
        """Tallies over all callers; read it after :meth:`join`."""
        total = sum(self._tallies, Counter())
        stats = [caller.stats for caller in self.callers]
        return {
            "count": len(self.callers),
            **{key: total[key]
               for key in ("calls", "served", "errors", "shed")},
            "retries": sum(s.retries for s in stats),
            "breaker_skips": sum(s.breaker_skips for s in stats),
            "error_rate": total["errors"] / total["calls"]
            if total["calls"] else 1.0,
        }
