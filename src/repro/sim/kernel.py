"""Discrete-event simulation kernel.

A tiny, deterministic event-driven simulator in the style of SimPy,
purpose-built for this reproduction:

* :class:`Simulator` owns the virtual clock and the event heap.
* :class:`Event` is a one-shot occurrence that processes can wait on.
* :class:`Timeout` is an event that fires after a virtual delay.
* :class:`Process` wraps a Python generator; each value the generator
  yields must be an :class:`Event`, and the process resumes when that
  event fires.
* :class:`Call` is a bare callback — what :meth:`Simulator.schedule`
  queues — and :class:`Deadline` a reschedulable timer that keeps one
  live heap entry however often it moves.

Determinism: events scheduled for the same virtual time fire in FIFO
order of scheduling (stable sequence numbers break ties), so a run is a
pure function of the root RNG seed and the program.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..errors import ProcessKilled, SimulationError

#: Scheduling priorities: URGENT events (kills) pre-empt
#: NORMAL events scheduled for the same virtual time.
URGENT = 0
NORMAL = 1

_PENDING = object()  # sentinel: event not yet triggered
_NEVER = float("inf")  # a deadline with no heap entry is queued for never


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, scheduling its callbacks to run at the current virtual
    time.  Processes wait on events by ``yield``-ing them.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_delayed_value",
                 "_cancelled", "_fail_silently")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        # What a still-pending event succeeds with when the kernel pops
        # it (timeouts and process starts trigger that way).
        self._delayed_value: Any = None
        self._cancelled = False
        self._fail_silently = False

    # -- state ---------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once the callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if self._ok is None:
            raise SimulationError("event not yet triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception of the event."""
        if self._value is _PENDING:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering ----------------------------------------------------

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._queue_event(self, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event as failed; waiters get ``exception`` thrown
        into them."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.sim._queue_event(self, priority)
        return self

    def defuse(self) -> None:
        """This event's failure is deliberate or handled by the caller:
        the kernel must not re-raise it as one nobody waited on."""
        self._fail_silently = True

    def cancel(self) -> None:
        """Prevent the callbacks from running when the event fires."""
        self._cancelled = True

    # -- internal ------------------------------------------------------

    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately via the scheduler so
            # late waiters still observe the value.
            self.sim.call_soon(callback, self)
        else:
            self.callbacks.append(callback)

    def _remove_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is not None and callback in self.callbacks:
            self.callbacks.remove(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending" if not self.triggered else ("ok" if self._ok else "failed")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that succeeds after ``delay`` units of virtual time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        # Triggered lazily when popped from the heap (see Simulator.step),
        # so `triggered` stays False until the delay has elapsed.
        self._delayed_value = value
        sim._queue_event(self, NORMAL, delay=delay)


class Process(Event):
    """A simulated thread of control, driven by a generator.

    The process *is itself an event* that succeeds with the generator's
    return value (or fails with its uncaught exception), so processes can
    wait for each other by yielding a :class:`Process`.
    """

    __slots__ = ("name", "_generator", "_target", "_alive")

    def __init__(self, sim: "Simulator", generator: Generator, name: str = ""):
        super().__init__(sim)
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"Process requires a generator, got {generator!r}")
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._target: Optional[Event] = None  # event we are waiting on
        self._alive = True
        # Kick-start on the next scheduler step at the current time.
        start = Event(sim)
        start._add_callback(self._resume)
        sim._queue_event(start, NORMAL)

    # -- public --------------------------------------------------------

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return self._alive

    def kill(self) -> None:
        """Forcibly terminate the process (fail-stop node crash).

        The generator is closed; waiters on the process see it fail with
        :class:`ProcessKilled`.
        """
        if not self._alive:
            return
        self._alive = False
        if self._target is not None:
            self._target._remove_callback(self._resume)
            self._target = None
        self._generator.close()
        if not self.triggered:
            self._ok = False
            self._value = ProcessKilled(self.name)
            self.defuse()  # a kill is deliberate, not a bug
            self.sim._queue_event(self, URGENT)

    # -- internal ------------------------------------------------------

    def _resume(self, event: Event) -> None:
        if not self._alive:
            return
        self._target = None

        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self._alive = False
            if not self.triggered:
                self.succeed(stop.value)
            return
        except BaseException as exc:
            self._alive = False
            if not self.triggered:
                self.fail(exc)
            return

        if not isinstance(next_event, Event):
            self._alive = False
            err = SimulationError(
                f"process {self.name!r} yielded non-event {next_event!r}"
            )
            if not self.triggered:
                self.fail(err)
            return
        self._target = next_event
        next_event._add_callback(self._resume)


class Call:
    """A callback queued by :meth:`Simulator.schedule`; the handle
    :meth:`Simulator.cancel` takes."""

    __slots__ = ("fn", "args", "_cancelled")

    def __init__(self, fn: Callable, args: tuple):
        self.fn = fn
        self.args = args
        self._cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running."""
        self._cancelled = True


class Deadline:
    """One reschedulable timer: ``fn()`` runs when the deadline set by
    the latest :meth:`reset` passes, unless :meth:`clear` came after it.

    A protocol timer moves far more often than it fires (Totem's
    token-loss timeout moves on every token and message seen), so moving
    it is two stores, and a push only if nothing is queued or the
    deadline moved *earlier* than what is.  The queued entry, when it
    pops, re-queues itself under the stored deadline if that has moved
    on.  Firing order is that of a ``schedule`` made when the tie-break
    number was drawn (at ``reset``, or before, for :meth:`reset_at`): the
    entry re-enters the heap under that key before the kernel reaches it.
    """

    __slots__ = ("sim", "fn", "when", "seq", "_queued_when", "_queued_seq")

    def __init__(self, sim: "Simulator", fn: Callable[[], None]):
        self.sim = sim
        self.fn = fn
        #: Kernel time the timer fires at; None while not armed.
        self.when: Optional[float] = None
        self.seq = 0
        self._queued_when = _NEVER
        self._queued_seq = 0

    @property
    def armed(self) -> bool:
        return self.when is not None

    def reset(self, delay: float) -> None:
        """(Re)arm the timer to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative deadline delay {delay!r}")
        self.reset_at(self.sim.now + delay)

    def reset_at(self, when: float, seq: Optional[int] = None) -> None:
        """(Re)arm the timer to fire at kernel time ``when`` (not past),
        exactly, in the order of a ``schedule`` made when ``seq`` was
        drawn (:meth:`Simulator.next_seq`; by default, now)."""
        self.when = when
        self.seq = next(self.sim._seq) if seq is None else seq
        if when < self._queued_when:
            self._queue()

    def clear(self) -> None:
        """Disarm the timer (its queued entry, if any, dies when popped)."""
        self.when = None

    def _queue(self) -> None:
        self._queued_when = self.when
        self._queued_seq = self.seq
        self.sim._queue_deadline(self)

    def _expire(self, seq: int) -> None:
        """The entry queued under ``seq`` popped."""
        if seq != self._queued_seq:
            return  # superseded: a reset to an earlier time queued another
        self._queued_when = _NEVER
        if self.when is None:
            return
        if seq != self.seq:
            self._queue()  # the deadline moved on
        else:
            self.when = None
            self.fn()


class Simulator:
    """The discrete-event scheduler: virtual clock plus event heap.

    No ``__slots__``, and ``run`` dispatches through ``self.step``:
    ``bench/tracing.py`` rebinds methods on the instance.
    """

    def __init__(self):
        self._now: float = 0.0
        self._heap: List[Tuple[float, int, int, Any]] = []
        self._seq = count()

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # -- event construction ---------------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str = "") -> Process:
        """Spawn a new process from ``generator``."""
        return Process(self, generator, name=name)

    # -- callback-style scheduling ---------------------------------------

    def schedule(self, delay: float, callback: Callable, *args: Any) -> Call:
        """Run ``callback(*args)`` after ``delay`` seconds of virtual time.

        Returns a handle for :meth:`cancel`; it is not an event and
        cannot be waited on (use :meth:`timeout` for that).
        """
        if delay < 0:
            raise SimulationError(f"negative schedule delay {delay!r}")
        call = Call(callback, args)
        heappush(self._heap, (self._now + delay, NORMAL, next(self._seq), call))
        return call

    def call_soon(self, callback: Callable, *args: Any) -> Call:
        """Run ``callback(*args)`` at the current virtual time, after the
        currently-running step completes."""
        return self.schedule(0.0, callback, *args)

    def next_seq(self) -> int:
        """Draw the tie-break number a ``schedule`` made now would get."""
        return next(self._seq)

    def deadline(self, fn: Callable[[], None]) -> Deadline:
        """Create a disarmed reschedulable timer that runs ``fn()``."""
        return Deadline(self, fn)

    def cancel(self, handle) -> None:
        """Prevent what ``handle`` stands for from running: the callback
        of a handle :meth:`schedule` returned, or the callbacks of an
        :class:`Event`.  The heap entry stays (heap removal is O(n)) and
        is dropped when popped.
        """
        handle.cancel()

    # -- internal queueing ------------------------------------------------

    def _queue_event(self, event: Event, priority: int, delay: float = 0.0) -> None:
        heappush(self._heap, (self._now + delay, priority, next(self._seq), event))

    def _queue_deadline(self, deadline: Deadline) -> None:
        heappush(self._heap, (deadline.when, NORMAL, deadline.seq, deadline))

    # -- execution ---------------------------------------------------------

    def step(self) -> None:
        """Process the single next entry in the heap."""
        when, _priority, seq, entry = heappop(self._heap)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        kind = type(entry)
        if kind is Call:
            if not entry._cancelled:
                entry.fn(*entry.args)
        elif kind is Deadline:
            entry._expire(seq)
        else:
            self._fire_event(entry)

    def _fire_event(self, event: Event) -> None:
        if event._value is _PENDING:
            # Heap-delayed trigger (Timeout, process start).
            event._ok = True
            event._value = event._delayed_value
        callbacks = event.callbacks
        event.callbacks = None
        if event._cancelled:
            return
        if callbacks:
            for callback in callbacks:
                callback(event)
        elif event._ok is False and not event._fail_silently:
            self._unheeded_failure(event._value)

    def _unheeded_failure(self, exception: BaseException) -> None:
        # A failed event nobody waited on: surface the error rather
        # than losing it silently.
        raise exception

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the heap drains, virtual time passes ``until``, or
        ``max_events`` events have been processed.

        Returns the virtual time at which execution stopped.
        """
        processed = 0
        while self._heap:
            if until is not None and self._heap[0][0] > until:
                self._now = until
                break
            if max_events is not None and processed >= max_events:
                break
            self.step()
            processed += 1
        else:
            if until is not None and until > self._now:
                self._now = until
        return self._now

    def run_process(self, generator: Generator, name: str = "") -> Any:
        """Convenience: spawn ``generator`` and run until it finishes.

        Returns the process's return value; re-raises its exception.
        """
        proc = self.process(generator, name=name)
        while not proc.triggered and self._heap:
            self.step()
        if not proc.triggered:
            raise SimulationError(f"process {proc.name!r} deadlocked: event heap empty")
        if proc._ok:
            return proc._value
        # We are observing the failure here; stop the scheduler from
        # re-raising it when the (still queued) process event is popped.
        proc.defuse()
        raise proc._value
