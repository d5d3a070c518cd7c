"""RPC client: remote method invocations on a replicated server group.

The client is typically unreplicated (a singleton group, as in the
paper's experiments where the client runs on the ring leader n0).  It
multicasts ``REQUEST`` envelopes to the server group over the total
order, collects the first matching ``REPLY`` and discards duplicates —
with active replication every replica answers; the first reply wins.

Because the client is not replicated, it reads its node's physical clock
directly to timestamp requests, which is how the paper measures
end-to-end latency (Section 4.2).
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Tuple

from .. import obs
from ..errors import RpcTimeout
from ..replication.envelope import Envelope, MsgType, make_envelope
from ..replication.group import GroupRuntime
from ..sim.kernel import Event
from .messages import Invocation, Result

@dataclass
class ClientStats:
    """Counters for tests and the evaluation harness."""

    calls: int = 0
    replies_first: int = 0
    #: Replies to a call no longer pending (answered, or timed out).
    replies_duplicate: int = 0
    timeouts: int = 0
    #: Re-invocations issued by :meth:`RpcClient.retrying_call`.
    retries: int = 0
    #: Per-call end-to-end latency in microseconds, by call order.
    latencies_us: list = field(default_factory=list)


#: ClientStats field -> the registry family read from it.
COUNTERS = obs.read_counters({
    "retries": ("rpc_retries_total", "in-process client re-invocations after timeout"),
})


class RpcClient:
    """One client endpoint on one node."""

    def __init__(self, runtime: GroupRuntime, group: Optional[str] = None):
        self.runtime = runtime
        self.metrics = runtime.metrics
        self.node = runtime.processor.node
        self.sim = runtime.sim
        self.group = group or f"client.{runtime.node_id}"
        self.endpoint = runtime.endpoint(self.group)
        self.endpoint.on_message = self._on_message
        self.endpoint.join()
        self.stats = ClientStats()
        self.metrics.watch(self.stats, COUNTERS, node=self.node.node_id)
        self._next_conn = 1
        self._conns: Dict[str, int] = {}
        self._next_seq: Dict[int, int] = {}
        self._pending: Dict[Tuple[int, int], Event] = {}
        #: (expiry, seq, key, server group, method) per timed call, expiries
        #: in order: one deadline, armed at the head, times them all out,
        #: each under the tie-break seq its call drew (a per-call schedule's).
        self._expiries: Deque[tuple] = deque()
        self._expiry = self.sim.deadline(self._expire)
        # Deterministic backoff jitter (the kernel itself is seeded, but
        # the client must not perturb other streams).
        self._rng = random.Random(f"rpc|{self.group}")

    # ------------------------------------------------------------------
    # Invocation
    # ------------------------------------------------------------------

    def call(
        self,
        server_group: str,
        method: str,
        *args,
        timeout: float = 1.0,
    ) -> Event:
        """Invoke ``method(*args)`` on ``server_group``.

        Returns a yieldable event that succeeds with the
        :class:`~repro.rpc.messages.Result` of the first reply, or fails
        with :class:`~repro.errors.RpcTimeout`.
        """
        conn_id = self._conn_for(server_group)
        seq = self._next_seq[conn_id]
        self._next_seq[conn_id] += 1
        event = Event(self.sim)
        key = (conn_id, seq)
        self._pending[key] = event
        self.stats.calls += 1
        self.endpoint.mcast(
            make_envelope(
                MsgType.REQUEST,
                self.group,
                server_group,
                conn_id,
                seq,
                self.node.node_id,
                body=Invocation(method, tuple(args)),
            )
        )
        if timeout is not None:
            expiry, expiries = self.sim.now + timeout, self._expiries
            if expiries and expiry < expiries[-1][0]:
                # Due before the queue's tail: a timer of its own.
                self.sim.schedule(timeout, self._on_timeout, key,
                                  server_group, method)
            else:
                seq = self.sim.next_seq()
                expiries.append((expiry, seq, key, server_group, method))
                if not self._expiry.armed:
                    self._expiry.reset_at(expiry, seq)
        return event

    def timed_call(self, server_group: str, method: str, *args, timeout: float = 1.0):
        """Generator: invoke and measure end-to-end latency at the client
        with its local ``gettimeofday()`` (the client is unreplicated, so
        reading the physical clock directly is legitimate).

        Returns ``(result, latency_us)``.
        """
        start_us = self.node.read_clock_us()
        result = yield self.call(server_group, method, *args, timeout=timeout)
        latency_us = self.node.read_clock_us() - start_us
        self.stats.latencies_us.append(latency_us)
        return result, latency_us

    def retrying_call(
        self,
        server_group: str,
        method: str,
        *args,
        timeout: float = 0.25,
        attempts: int = 4,
    ):
        """Generator: invoke with timeout-driven re-invocation.

        Each attempt is a fresh :meth:`call` with its own per-attempt
        ``timeout``; between attempts the client sleeps a jittered
        backoff (50 ms doubled per attempt, capped at 1 s).  Retries mask a replica crash or a
        lossy network from the workload — the chaos loadgen runs on
        this path.  Raises the last :class:`~repro.errors.RpcTimeout`
        when ``attempts`` are exhausted.
        """
        last_error = None
        for attempt in range(attempts):
            if attempt:
                self.stats.retries += 1
                pause = self._rng.uniform(0.5, 1.0) * min(
                    0.05 * (2 ** (attempt - 1)), 1.0)
                yield self.sim.timeout(pause)
            try:
                result = yield self.call(
                    server_group, method, *args, timeout=timeout)
                return result
            except RpcTimeout as exc:
                last_error = exc
        raise last_error

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _conn_for(self, server_group: str) -> int:
        if server_group not in self._conns:
            conn_id = self._next_conn
            self._next_conn += 1
            self._conns[server_group] = conn_id
            self._next_seq[conn_id] = 1
        return self._conns[server_group]

    def _on_message(self, envelope: Envelope) -> None:
        if envelope.header.msg_type is not MsgType.REPLY:
            return
        key = (envelope.header.conn_id, envelope.header.msg_seq_num)
        event = self._pending.pop(key, None)
        if event is not None:
            self.stats.replies_first += 1
            if not event.triggered:
                event.succeed(envelope.body)
        elif 0 < key[1] < self._next_seq.get(key[0], 0):
            # Issued, no longer pending: only outstanding calls are kept.
            self.stats.replies_duplicate += 1

    def _expire(self) -> None:
        """The head's deadline passed: time it out, forget the calls
        answered since, and re-arm at the first one still pending."""
        expiries, pending = self._expiries, self._pending
        self._on_timeout(*expiries.popleft()[2:])
        while expiries:
            expiry, seq, key = expiries[0][:3]
            if key in pending:
                self._expiry.reset_at(expiry, seq)
                return
            expiries.popleft()

    def _on_timeout(self, key, server_group: str, method: str) -> None:
        event = self._pending.pop(key, None)
        if event is not None and not event.triggered:
            self.stats.timeouts += 1
            event.fail(
                RpcTimeout(f"no reply from {server_group}.{method} (call {key})")
            )


def unwrap(result: Result):
    """Return ``result.value`` or raise the carried application error."""
    if not result.ok:
        raise RuntimeError(result.error)
    return result.value
