"""Load generation and the correctness ledger.

Everything runs on the bed's own kernel, in one thread: simulated
workloads use simulator processes, live workloads use callbacks on the
bed's asyncio loop and one non-blocking UDP socket that multiplexes all
logical client identities.  Inputs (schedules, identity draws) are made
here from the seed; the program only sees the generated requests.
"""

from __future__ import annotations

import random
import socket
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.control.admission import is_overloaded
from repro.errors import FrameError, RpcTimeout
from repro.net.wire import decode_frame_ex, encode_frame
from repro.replication.envelope import MsgType, make_envelope
from repro.rpc.messages import Invocation

from .beds import LIVE_NODES, Bed
from .spec import GROUP, Workload

METHOD = "gettimeofday"
#: Receiver identity under which the live client verifies signed replies.
CLIENT_NODE = "bench-client"


class Op:
    """One attempted operation."""

    __slots__ = ("client", "floor", "due")

    def __init__(self, client: int, floor: Optional[int], due: float):
        self.client = client
        #: Session floor sent as ``after_us``: the highest value this
        #: logical client had been served when the op was issued.
        self.floor = floor
        #: Bed time the op was due (open loop) or issued (closed loop);
        #: latency and the deadline run from here.
        self.due = due


class Ledger:
    """Counts every attempted op and checks every reply.

    An op fails if it is lost or late (no valid reply within the
    deadline of its due time), shed, answered with an error, or answered
    with a value not strictly above the floor it carried.
    """

    def __init__(self, clients: int, deadline_s: float):
        self.deadline_s = deadline_s
        self.floors: List[Optional[int]] = [None] * clients
        self.start_window()

    def start_window(self) -> None:
        """Forget counts and samples (session floors carry over)."""
        self.attempted = 0
        self.failures: Counter = Counter()
        #: (reply bed-time, latency seconds) of each served op.
        self.served: List[Tuple[float, float]] = []
        #: Open loop: how late after its due time each op was sent.
        self.late_s: List[float] = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def begin(self, client: int, due: float) -> Op:
        self.attempted += 1
        return Op(client, self.floors[client], due)

    def fail(self, reason: str) -> None:
        self.failures[reason] += 1

    def reply(self, op: Op, result, now: float) -> None:
        """Judge the first reply to ``op``, received at bed time ``now``."""
        latency = now - op.due
        if is_overloaded(result):
            self.fail("shed")
        elif not result.ok:
            self.fail("error")
        elif latency > self.deadline_s:
            self.fail("late")
        elif op.floor is not None and result.value <= op.floor:
            self.fail("non-monotone")
        else:
            floor = self.floors[op.client]
            if floor is None or result.value > floor:
                self.floors[op.client] = result.value
            self.served.append((now, latency))


def open_schedule(workload: Workload, seed: int, start: float,
                  window_s: float) -> List[Tuple[float, int]]:
    """``(due time, logical client)`` for every op of an open loop.

    The op count is fixed by rate × window so every seed offers the same
    load.  Live arrivals are Poisson (sorted uniform draws are a Poisson
    process conditioned on its count); the simulated failover run uses
    even spacing, so ops are due at a steady rate through the fault.
    """
    rng = random.Random(f"bench-schedule|{workload.name}|{seed}")
    count = max(1, round(workload.rate * window_s))
    if workload.is_sim:
        offsets = [index / workload.rate for index in range(count)]
    else:
        offsets = sorted(rng.uniform(0.0, window_s) for _ in range(count))
    return [(start + offset, rng.randrange(workload.clients))
            for offset in offsets]


# ----------------------------------------------------------------------
# Simulated beds
# ----------------------------------------------------------------------

def _sim_op(bed: Bed, ledger: Ledger, client: int, due: float):
    """Simulator process: one op through ``RpcClient.call``."""
    op = ledger.begin(client, due)
    try:
        result = yield bed.rpc.call(GROUP, METHOD, op.floor,
                                    timeout=ledger.deadline_s)
    except RpcTimeout:
        ledger.fail("timeout")
    else:
        ledger.reply(op, result, bed.sim.now)


def sim_probe(bed: Bed, ledger: Ledger) -> None:
    """Serve one op per logical client before the window."""
    for client in range(bed.workload.clients):
        bed.sim.run_process(_sim_op(bed, ledger, client, bed.sim.now))
    if ledger.failed:
        raise RuntimeError(f"set-up probe failed: {dict(ledger.failures)}")


def start_sim_closed(bed: Bed, ledger: Ledger, until: float) -> None:
    sim = bed.sim

    def caller(client: int):
        while sim.now < until:
            yield from _sim_op(bed, ledger, client, sim.now)

    for client in range(bed.workload.clients):
        sim.process(caller(client), name=f"bench-client-{client}")


def start_sim_open(bed: Bed, ledger: Ledger,
                   schedule: List[Tuple[float, int]]) -> None:
    sim = bed.sim

    def fire(index: int) -> None:
        due, client = schedule[index]
        sim.process(_sim_op(bed, ledger, client, due))
        if index + 1 < len(schedule):
            sim.schedule(schedule[index + 1][0] - sim.now, fire, index + 1)

    sim.schedule(schedule[0][0] - sim.now, fire, 0)


# ----------------------------------------------------------------------
# Live beds
# ----------------------------------------------------------------------

class LiveClient:
    """All logical clients of a live workload on one UDP socket, driven
    by the bed's event loop.

    Logical client ``i`` is its own client group (so gateways see
    distinct identities for routing, dedup and fairness), sticks to
    ``servers[i % 3]`` and is told apart on the shared socket by
    ``conn_id``.  With an authenticated bed, requests are signed and
    every reply verified with the bed's ``WireAuthenticator``.
    """

    SWEEP_S = 0.02

    def __init__(self, bed: Bed, ledger: Ledger):
        testbed = bed.testbed
        self.loop = testbed.kernel.loop
        self.ledger = ledger
        self.auth = testbed.auth
        self.servers = [testbed.node(node_id).address
                        for node_id in LIVE_NODES]
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.setblocking(False)
        self.sock.bind(("127.0.0.1", 0))
        self._seqs = [0] * bed.workload.clients
        self.pending: Dict[Tuple[int, int], Op] = {}
        #: Called with the logical client when one of its ops ends
        #: (served or failed); the closed loop issues the next op here.
        self.on_done: Optional[Callable[[int], None]] = None
        self.frames_rejected = 0
        self.duplicate_replies = 0
        self.closed = False
        # Rebound by the tracer: the codec entry points, the socket
        # callback, and a wrapper for callbacks created later.
        self.encode = encode_frame
        self.decode = decode_frame_ex
        self.on_readable = self._on_readable
        self.wrap = lambda name, fn: fn
        self.loop.add_reader(self.sock.fileno(), lambda: self.on_readable())
        self.loop.call_later(self.SWEEP_S, self._sweep)

    def now(self) -> float:
        return self.loop.time()

    def send(self, client: int, due: float) -> None:
        op = self.ledger.begin(client, due)
        self._seqs[client] += 1
        seq = self._seqs[client]
        name = f"b{client}"
        envelope = make_envelope(
            MsgType.REQUEST, f"client.{name}", GROUP, client + 1, seq, name,
            body=Invocation(METHOD, (op.floor,)))
        data = self.encode(name, envelope, None, self.auth)
        self.pending[(client + 1, seq)] = op
        self.sock.sendto(data, self.servers[client % len(self.servers)])

    def _on_readable(self) -> None:
        while True:
            try:
                data, _addr = self.sock.recvfrom(65536)
            except (BlockingIOError, InterruptedError):
                return
            now = self.now()
            try:
                _src, envelope, _trace = self.decode(
                    data, auth=self.auth, auth_node=CLIENT_NODE)
            except FrameError:
                self.frames_rejected += 1
                continue
            header = envelope.header
            if header.msg_type is not MsgType.REPLY:
                continue
            op = self.pending.pop((header.conn_id, header.msg_seq_num), None)
            if op is None:
                # The other replicas' replies to an answered op.
                self.duplicate_replies += 1
                continue
            self.ledger.reply(op, envelope.body, now)
            if self.on_done is not None:
                self.on_done(op.client)

    def _sweep(self) -> None:
        """Fail ops whose deadline passed without a valid reply."""
        if self.closed:
            return
        horizon = self.now() - self.ledger.deadline_s
        expired = [key for key, op in self.pending.items()
                   if op.due < horizon]
        for key in expired:
            op = self.pending.pop(key)
            self.ledger.fail("timeout")
            if self.on_done is not None:
                self.on_done(op.client)
        self.loop.call_later(self.SWEEP_S, self._sweep)

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.loop.remove_reader(self.sock.fileno())
            self.sock.close()


def live_probe(bed: Bed, client: LiveClient) -> None:
    """Serve one op per logical client before the window (joins the
    client groups and teaches the gateways the reply routes)."""
    for index in range(bed.workload.clients):
        client.send(index, client.now())
    bed.testbed.wait_until(lambda: not client.pending, poll=0.005)
    if client.ledger.failed:
        raise RuntimeError(
            f"set-up probe failed: {dict(client.ledger.failures)}")


def start_live_closed(bed: Bed, client: LiveClient, until: float) -> None:
    def next_op(index: int) -> None:
        if client.now() < until:
            client.send(index, client.now())

    client.on_done = next_op
    for index in range(bed.workload.clients):
        next_op(index)


def start_live_open(client: LiveClient,
                    schedule: List[Tuple[float, int]]) -> None:
    """Fire each op at its due time whatever is outstanding; latency
    runs from the due time, and how late the send was is recorded."""
    loop = client.loop

    def fire(index: int) -> None:
        due, logical = schedule[index]
        client.ledger.late_s.append(client.now() - due)
        client.send(logical, due)
        if index + 1 < len(schedule):
            loop.call_at(schedule[index + 1][0], traced_fire, index + 1)

    traced_fire = client.wrap("bench/fire", fire)
    loop.call_at(schedule[0][0], traced_fire, 0)
