"""The shard-routing tier: sessions onto shards, floors across them.

A :class:`ShardRouter` is the sharded deployment's gateway layer in
miniature: it owns one RPC client per shard (each homed on that shard's
client node, inside that shard's ring — rings are isolated multicast
domains, so a request can only enter a group's total order through a
member of its ring) and routes each session's operations to the shard
the consistent-hash ring assigns to the session key.

**Cross-shard monotone reads** ride the existing session floor: every
call passes the session's highest observed group-clock value as
``after_us``, and the serving replica's ``_serve`` ramps its group
clock above the floor before answering.  Within one shard the floor is
a no-op (the group clock already exceeds it); when the ring reassigns
the key — shard added/removed, i.e. a **migration** — the floor travels
with the session, so the destination shard blocks/ramps until its clock
clears the source shard's last answer.  The client therefore observes
one strictly increasing clock across the whole fleet, which is exactly
what :meth:`InvariantOracle.observe_reply`'s migration check verifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from ..rpc import RpcClient, unwrap

__all__ = ["ShardSession", "ShardRouter"]


@dataclass
class ShardSession:
    """One client identity: its routing key and its monotonicity floor."""

    key: str
    #: Routing identity when it differs from ``key`` — zipf-skewed load
    #: generators give many sessions one hot identity so they land on
    #: the same shard while each keeps its own monotonicity floor.
    route_key: Optional[str] = None
    #: Highest group-clock value observed so far (None before the first
    #: reply) — passed as ``after_us`` on every call.
    floor_us: Optional[int] = None
    #: Shard that served the last reply.
    shard: Optional[int] = None
    #: Times the ring moved this session to a different shard.
    migrations: int = 0
    #: Reply transcript for tests: (shard, value_us).
    history: list = field(default_factory=list)


class ShardRouter:
    """Routes session calls to the owning shard, carrying the floor."""

    def __init__(self, bed, *, oracle=None, timeout: float = 1.0,
                 oracle_gate: Optional[Callable[[], bool]] = None,
                 rate_slack_us: int = 0):
        self.bed = bed
        self.ring = bed.ring
        self.oracle = oracle
        #: When set, replies feed the oracle only while it returns True
        #: — runners pass the overlay's ``warmed_up`` so the initial
        #: epoch-alignment jumps are not judged as staleness.
        self.oracle_gate = oracle_gate
        #: Extra rate slack for the oracle (the overlay's hop bound).
        self.rate_slack_us = rate_slack_us
        self.timeout = timeout
        self._clients: Dict[int, RpcClient] = {}
        self.sessions: Dict[str, ShardSession] = {}
        self.calls_routed = 0

    def session(self, key: str) -> ShardSession:
        session = self.sessions.get(key)
        if session is None:
            session = self.sessions[key] = ShardSession(key)
        return session

    def client_for(self, shard: int) -> RpcClient:
        client = self._clients.get(shard)
        if client is None:
            client = self._clients[shard] = self.bed.shard_client(shard)
        return client

    def call(self, session: ShardSession, *, timeout: Optional[float] = None):
        """Generator: one ``gettimeofday`` through the owning shard.

        Returns the reply dict (``sec``/``usec``/``micros``).  Routes by
        the ring's *current* assignment, counts the migration if it
        changed, and advances the session floor from the reply.
        """
        shard = self.ring.owner(session.route_key or session.key)
        if session.shard is not None and shard != session.shard:
            session.migrations += 1
        client = self.client_for(shard)
        result = yield client.call(
            self.bed.group_of(shard), "gettimeofday", session.floor_us,
            timeout=self.timeout if timeout is None else timeout)
        value = unwrap(result)
        self.calls_routed += 1
        micros = value["micros"]
        if self.oracle is not None and (
                self.oracle_gate is None or self.oracle_gate()):
            self.oracle.observe_reply(
                session.key, micros, wall_s=self.bed.sim.now, shard=shard,
                rate_slack_us=self.rate_slack_us)
        session.history.append((shard, micros))
        if len(session.history) > 64:
            del session.history[:-64]
        if session.floor_us is None or micros > session.floor_us:
            session.floor_us = micros
        session.shard = shard
        return value

    def timed_call(self, session: ShardSession, *,
                   timeout: Optional[float] = None):
        """Generator: :meth:`call`, returning its latency in microseconds
        of bed time — the per-call shape the load engine drives."""
        start_s = self.bed.sim.now
        yield from self.call(session, timeout=timeout)
        return int((self.bed.sim.now - start_s) * 1e6)
