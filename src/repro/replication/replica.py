"""The replica runtime: one replicated application instance on a node.

A :class:`Replica` binds together

* a :class:`~repro.replication.group.GroupEndpoint` (ordered messaging
  and views),
* the application object (methods written as generators taking a
  :class:`~repro.replication.context.ReplicaContext`),
* a :class:`~repro.replication.timesource.TimeSource` (the consistent
  time service or a baseline), and
* a deterministic :class:`~repro.replication.scheduler.ThreadManager`.

Requests are processed by a single *main* logical thread in delivery
order (the paper's model: "one and only one thread is assigned to
process incoming remote method invocations"), which is what makes the
replicas' visible behaviour deterministic given deterministic clock
readings.  Subclasses implement the three replication styles the paper
targets: active, passive (primary/backup) and semi-active.

The main thread is a callback executor, not a kernel process: a read a
CCS delivery completes resumes its execution right after that delivery;
a delivered request is admitted one zero-delay wake-up later, after its
batch and every resumable execution.  A pending read parks an execution
and lets the next request in; any other event it yields (``ctx.compute``)
holds the thread until it fires, as every read does serially.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from .. import obs
from ..trace import op_trace_id
from ..errors import ConsistencyError, ReplicationError
from ..sim.kernel import Event
from .context import ReplicaContext
from .envelope import Envelope, MessageHeader, MsgType, make_envelope
from .group import GroupRuntime, GroupView
from .scheduler import ThreadManager
from .state_transfer import DISCARDING, StateTransferManager
from .timesource import ClockRead, TimeSource
from ..rpc.messages import Result


class Application:
    """Base class for replicated application objects.

    Methods are generators: ``def ping(self, ctx, x): yield ctx.compute(..);
    return x``.  ``get_state``/``set_state`` support checkpointing and
    state transfer; override them if the application holds state.
    """

    def get_state(self) -> Any:
        """Return a deep-copyable snapshot of application state."""
        return None

    def set_state(self, state: Any) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""


@dataclass
class ReplicaStats:
    """Counters used by tests and the evaluation harness."""

    requests_processed: int = 0
    replies_sent: int = 0
    checkpoints_sent: int = 0
    checkpoints_applied: int = 0
    requests_logged: int = 0
    promotions: int = 0
    state_transfers_served: int = 0
    state_transfers_applied: int = 0


#: ReplicaStats field -> the registry family read from it.
COUNTERS = obs.read_counters({
    "checkpoints_sent": ("replication_checkpoints_total",
                         "checkpoints multicast by a primary"),
    "promotions": ("replication_promotions_total", "backup-to-primary promotions"),
    "state_transfers_served": ("replication_state_transfers_served_total",
                               "checkpoints served to recovering replicas"),
    "state_transfers_applied": ("replication_state_transfers_applied_total",
                                "checkpoints adopted by recovering replicas"),
})


class Replica(abc.ABC):
    """Common machinery of all replication styles."""

    style = "abstract"

    #: Whether this style may overlap request executions across clock
    #: reads (when deployed with ``coalesce``).  Request *admission*
    #: stays in delivery order; only the blocking portion of clock reads
    #: overlaps.  Styles whose correctness depends on strictly serial
    #: execution (passive primaries take periodic checkpoints between
    #: requests) turn this off.
    supports_pipelining = True

    def __init__(
        self,
        runtime: GroupRuntime,
        group: str,
        app: Application,
        time_source_factory: Callable[["Replica"], TimeSource],
        *,
        join_existing: bool = False,
        coalesce: bool = True,
    ):
        self.runtime = runtime
        # The bed's tracer (the registry is ``runtime.metrics``: an
        # active replica stays within the 29 instance attributes CPython
        # 3.11 keeps inline).
        self.tracer = runtime.tracer
        #: True when this replica is (re)joining a group that is believed
        #: to exist already — e.g. after a crash, when the local group
        #: runtime has no view history and cannot tell from its first
        #: view whether other members exist.
        self.join_existing = join_existing
        self.group = group
        self.app = app
        self.node = runtime.processor.node
        self.node_id = self.node.node_id
        self.sim = runtime.sim
        self.endpoint = runtime.endpoint(group)
        self.threads = ThreadManager(self.node, f"{group}@{self.node_id}")
        self.state_transfer = StateTransferManager(self)
        self.time_source = time_source_factory(self)
        # Whether a request ordered now runs here (not before GET_STATE).
        self.endpoint.executes = lambda: (
            self.endpoint.joined and not self.suspended
            and self.state_transfer.phase != DISCARDING)
        #: Count of REQUEST envelopes delivered to the group — identical
        #: at every member because delivery is totally ordered.
        self.request_index = 0
        self.stats = ReplicaStats()
        runtime.metrics.watch(self.stats, COUNTERS, node=self.node_id)
        self.main_thread_id: str = ""
        # -- the main thread -----------------------------------------------
        #: Request indexes admitted but not yet finished.
        self._active_requests: set = set()
        #: Delivered ``(envelope, request index)`` items in delivery order
        #: (a GET_STATE's index is None), and the (generator, completed
        #: read) continuations that resume ahead of them.
        self._admissions: deque = deque()
        self._resumable: deque = deque()
        #: Count of admitted-but-unfinished request executions.
        self._inflight = 0
        #: An execution runs, or holds the thread on a non-read event.
        self._holding = False
        #: A zero-delay wake-up of the thread is queued.
        self._woken = False
        #: Whether every read holds the thread (``coalesce`` off, or a
        #: style that cannot overlap executions), and the node's crash
        #: count at start (a crash ends the thread).
        self._serial = not (self.supports_pipelining and coalesce)
        self._incarnation = 0
        self._join_observed = False
        self._started = False
        # -- primary-component handling (paper Section 2) ----------------
        #: True while this replica's component is not the primary one:
        #: it must not process requests (only the primary component of a
        #: partitioned system survives).
        self.suspended = False
        #: Group members seen in the last view before suspension.
        self._members_before_suspension: frozenset = frozenset()
        #: Nodes of the component we were suspended in.
        self._component_nodes: frozenset = frozenset()
        #: Whether our current Totem component is the primary one.  True
        #: until told otherwise: a simulated cluster installs its full
        #: (primary) ring before delivering any group view.
        self._component_primary = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Join the group and start the main processing thread."""
        if self._started:
            raise ReplicationError(f"replica {self.group}@{self.node_id} already started")
        self._started = True
        self.endpoint.on_message = self._on_message
        self.endpoint.on_view_change = self._on_view_change
        self.endpoint.on_config_change = self._on_totem_config
        self.endpoint.on_raw_message = self._on_raw_message
        self.main_thread_id = self.threads.create("main").thread_id
        self._incarnation = self.node.crash_count
        self.endpoint.join()

    def create_thread(self, name: str, body: Callable[[ReplicaContext], Generator]):
        """Start an additional logical thread (e.g. a timer thread).

        Threads must be created in the same order at every replica; the
        deterministic runtime guarantees this when creation happens in
        ``start()`` or in replicated request handlers.
        """
        thread = self.threads.create(name)
        ctx = ReplicaContext(self, thread.thread_id)
        thread.process = self.node.spawn(body(ctx), name=f"{self.group}:{name}")
        return thread

    @property
    def is_primary(self) -> bool:
        return self.endpoint.is_primary

    @property
    def view(self) -> GroupView:
        return self.endpoint.view

    # ------------------------------------------------------------------
    # Delivery path
    # ------------------------------------------------------------------

    def _on_raw_message(self, envelope: Envelope) -> None:
        if envelope.header.msg_type is MsgType.CCS:
            self.time_source.handle_raw_ccs(envelope)

    def _on_totem_config(self, change) -> None:
        """Primary-component partition handling (paper Section 2): only
        the primary component survives a partition.  A replica finding
        itself in a non-primary component suspends; when the partition
        heals it either resumes (if no group member kept processing
        elsewhere) or rejoins through a fresh state transfer."""
        self._component_primary = change.is_primary
        if not change.is_primary:
            if not self.suspended and self.state_transfer.ready:
                self.suspended = True
                self._members_before_suspension = frozenset(
                    self.endpoint.view.members
                ) | {self.node_id}
            self._component_nodes = frozenset(change.members)
            return
        if not self.suspended:
            return
        # Back in a primary component.  Group members outside our old
        # component may have processed requests while we were suspended.
        self.suspended = False
        foreign = self._members_before_suspension - self._component_nodes
        if foreign:
            self.state_transfer.restart()

    def _on_message(self, envelope: Envelope) -> None:
        if self.suspended:
            # Non-primary component: no processing, no logging, nothing.
            return
        msg_type = envelope.header.msg_type
        # Time-service control traffic and checkpoints addressed to us are
        # handled immediately even during recovery.
        if msg_type is MsgType.CCS:
            # Reads it completes resume right after it, not on a wake-up;
            # a GET_STATE that waited for them to end is admitted on one.
            woken, self._woken = self._woken, True
            self.time_source.handle_ccs(envelope, self.node.read_clock_us())
            self._woken = woken
            if self._resume() and self._admissions:
                self._wake()
            return
        if msg_type is MsgType.STATE:
            self.state_transfer.on_state(envelope)
            return
        if msg_type is MsgType.REPLY:
            return  # replies concern clients, not server replicas
        if not self.state_transfer.ready:
            if (
                msg_type is MsgType.GET_STATE
                and envelope.body.get("target") == self.node_id
            ):
                # Our own GET_STATE came back: from here on, queue.
                self.state_transfer.begin_queuing()
                return
            self.state_transfer.observe_while_recovering(envelope)
            return
        self.dispatch(envelope)

    def dispatch(self, envelope: Envelope) -> None:
        """Route one ordered message (live or replayed after recovery)."""
        msg_type = envelope.header.msg_type
        if msg_type is MsgType.REQUEST or msg_type is MsgType.REQUEST_ALL:
            self.request_index += 1
            self._handle_request(envelope, self.request_index)
        elif msg_type is MsgType.GET_STATE:
            if envelope.body.get("target") != self.node_id:
                # Serve at a quiescent point: through the main thread's
                # queue (``(envelope, request index)`` pairs; no index).
                self._submit((envelope, None))
        elif msg_type is MsgType.CHECKPOINT:
            self._handle_checkpoint(envelope)
        elif msg_type is MsgType.APP:
            self._handle_app_message(envelope)

    # ------------------------------------------------------------------
    # The main thread
    # ------------------------------------------------------------------

    def _submit(self, item: tuple) -> None:
        """Queue one ``(envelope, request index)`` item for the next wake-up:
        the rest of its delivery batch may complete parked reads first."""
        self._admissions.append(item)
        self._wake()

    def _resume(self) -> bool:
        """Resume the executions whose clock read completed while the
        thread is free, and say whether it still is (a holding execution
        resumes the rest when it lets go; a crash ends the thread)."""
        resumable = self._resumable
        while not self._holding and self.node.crash_count == self._incarnation:
            if not resumable:
                return True
            self._run(*resumable.popleft())
        return False

    def _wake(self) -> None:
        """Run the thread after this kernel step, unless an execution
        occupies it (and runs it when it lets go) or a wake-up is queued."""
        if not (self._woken or self._holding):
            self._woken = True
            self.sim.schedule(0.0, self._pump)

    def _pump(self) -> None:
        """Resume the executions whose clock read completed, then admit
        queued requests in delivery order, until an execution holds the
        thread or nothing is left; serially, one admission per wake-up.
        Only the *blocking* part of reads overlaps (executions sharing a
        round); CPU segments run one at a time, so replicas agree as long
        as no state mutation straddles a read (docs/performance.md)."""
        self._woken = False
        admissions = self._admissions
        while self._resume() and admissions:
            envelope, index = admissions[0]
            if index is None and self._inflight:
                # State is served at a quiescent point: every admitted
                # execution finishes before the special round runs.
                return
            admissions.popleft()
            if index is None:
                self._run(self.state_transfer.handle_get_state(envelope),
                          request=False)
            else:
                self._inflight += 1
                self._run(self._execute(envelope, index))
            if self._serial:
                if admissions and not self._holding:
                    self._wake()
                return

    def _run(self, gen: Generator, done: Optional[Event] = None,
             request: bool = True) -> None:
        """Step one execution, resuming it with the completed event
        ``done``, until it finishes, parks on a pending clock read (a
        pipelined request only) or holds the thread on any other event."""
        parks = request and not self._serial
        self._holding = True
        while True:
            try:
                if done is None or done._ok:
                    ev = gen.send(None if done is None else done._value)
                else:
                    ev = gen.throw(done._value)
            except StopIteration:
                if request:
                    self._inflight -= 1
                break
            if parks and type(ev) is ClockRead:
                if ev.triggered:
                    done = ev
                    continue
                ev.waiter = lambda read, g=gen: self._read_done(g, read)
                break
            ev._add_callback(lambda e, g=gen: self._release(g, e, request))
            return
        self._holding = False

    def _release(self, gen: Generator, done: Event, request: bool) -> None:
        """The event holding the thread fired: resume its execution."""
        if self.node.crash_count != self._incarnation:
            return
        self._run(gen, done, request)
        if not self._serial:
            self._pump()
        elif self._admissions and not self._holding:
            self._wake()

    def _read_done(self, gen: Generator, read: Event) -> None:
        """A parked execution's read completed inside the time service:
        it resumes before any further admission."""
        self._resumable.append((gen, read))
        self._wake()

    @property
    def idle(self) -> bool:
        """True when no admitted execution is in flight or resumable."""
        return not (self._inflight or self._resumable)

    def _enqueue_request(self, envelope: Envelope, index: int) -> None:
        """Queue a delivered request for execution.

        The index joins ``_active_requests`` *here*, not when execution
        starts: a queued request has not issued its clock reads yet, so
        the retained consumed round that covers them must survive until
        it runs.  Were the index added only at execution start, a gap
        between "every running request finished" and "the next queued
        one begins" would let the prune floor jump past the queued
        request and drop the round it needs — a replica that parked the
        operation in time would then serve it a different round's value.
        """
        self._active_requests.add(index)
        self._submit((envelope, index))

    def _request_finished(self, index: int) -> None:
        """Bookkeeping after one request execution: tell the time source
        the lowest request index still active, so it can prune retained
        consumed rounds no future operation can reference."""
        self._active_requests.discard(index)
        self.time_source.note_min_active_request(
            min(self._active_requests) if self._active_requests
            else self.request_index + 1)

    def _execute(self, envelope: Envelope, index: int) -> Generator:
        invocation = envelope.body
        if self.tracer.enabled:
            self.tracer.emit(
                "op.execute", self.node_id,
                trace=op_trace_id(envelope.header.op_key), req=index,
                method=invocation.method, t=self.sim.now)
        ctx = ReplicaContext(self, self.main_thread_id, request_index=index)
        method = getattr(self.app, invocation.method, None)
        if method is None:
            result = Result(error=f"NoSuchMethod: {invocation.method}")
        else:
            try:
                value = yield from method(ctx, *invocation.args)
                result = Result(value=value)
            except ConsistencyError:
                raise  # this replica's state is wrong, not the request
            except Exception as exc:  # deterministic app error -> caller
                result = Result(error=f"{type(exc).__name__}: {exc}")
        self.stats.requests_processed += 1
        header = envelope.header
        route = self._reply_route(header)
        if route is not None:
            route(
                make_envelope(
                    MsgType.REPLY,
                    self.group,
                    header.src_grp,
                    header.conn_id,
                    header.msg_seq_num,
                    self.node_id,
                    body=result,
                )
            )
            self.stats.replies_sent += 1
        self._after_execute(envelope, index)
        self._request_finished(index)

    # ------------------------------------------------------------------
    # View plumbing
    # ------------------------------------------------------------------

    def _on_view_change(self, view: GroupView) -> None:
        if not self._join_observed and self.node_id in view.members:
            self._join_observed = True
            if (
                len(view.members) == 1
                and not self.join_existing
                and self._component_primary
            ):
                # Founding is only safe inside the primary component: a
                # lone replica in a minority component (e.g. a daemon
                # whose ring has not yet merged with its peers at cold
                # start) must assume the group already exists elsewhere
                # and synchronize through state transfer instead.
                self.state_transfer.mark_founder()
            else:
                self.state_transfer.request_state()
        self.time_source.on_view_change(view)
        self._view_changed(view)

    # ------------------------------------------------------------------
    # Style hooks
    # ------------------------------------------------------------------

    @abc.abstractmethod
    def _handle_request(self, envelope: Envelope, index: int) -> None:
        """Decide what to do with a delivered request."""

    def _reply_route(self, header: MessageHeader) -> Optional[Callable]:
        """Where the reply to ``header`` goes (None: this one does not answer)."""
        return self.endpoint.mcast

    def _after_execute(self, envelope: Envelope, index: Optional[int]) -> None:
        """Post-processing hook (checkpointing for passive replication)."""

    def _handle_checkpoint(self, envelope: Envelope) -> None:
        """Periodic checkpoint from a passive primary."""

    def _handle_app_message(self, envelope: Envelope) -> None:
        """Application-defined ordered group message."""

    def _view_changed(self, view: GroupView) -> None:
        """Membership hook (failover for passive replication)."""

    # -- state-transfer integration points -------------------------------

    def checkpoint_index(self) -> int:
        """How many requests the transferred state covers."""
        return self.request_index

    def apply_checkpoint_index(self, index: int) -> None:
        """Adopt the processed-request watermark from a checkpoint."""

    def capture_extra_state(self) -> Any:
        """Style-specific extra state for transfer (e.g. request log)."""
        return None

    def apply_extra_state(self, extra: Any) -> None:
        """Adopt style-specific extra state from a checkpoint."""

    def runs_special_round(self) -> bool:
        """Whether this member performs the special CCS round at a
        GET_STATE quiescent point.  True for styles that process in
        lockstep (active, semi-active); passive backups do not — their
        request-queue position differs from the primary's, so a read
        would consume the wrong buffered round."""
        return True

    def after_state_served(self, checkpoint: Any) -> None:
        """Hook after this member multicast a STATE checkpoint."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.group}@{self.node_id}>"
