"""The simulation kernel's event API, re-implemented in real time.

The entire protocol stack — Totem, the replication layer, the time
service — is written against :class:`repro.sim.kernel.Simulator`: it
creates events and timeouts, spawns generator processes, schedules
callbacks, and reads ``sim.now``.  :class:`LiveKernel` keeps that exact
API but maps it onto an asyncio event loop:

* ``now`` is the loop's monotonic clock, zeroed at construction, so all
  kernel timestamps remain "seconds since start" just like the sim;
* queueing an event hands the loop the simulator's own
  :meth:`Simulator._fire_event` (lazy trigger values, cancelled-event
  skipping, unheeded-failure detection) and a scheduled callback goes to
  it as it is — ``loop.call_later`` for a delay, ``loop.call_soon`` for
  none, so a zero-delay wake runs before the next pass's socket reads
  and never touches the timer heap; a
  :class:`~repro.sim.kernel.Deadline` keeps one ``call_later`` pending
  however often it is moved, re-arming it for the remaining time when
  it fires early;
* ``run(until=...)`` drives the loop with ``run_until_complete`` of a
  real sleep, and ``run_process`` blocks on a loop future resolved by
  the process's completion callback.

Because only the *scheduling* substrate changes, every object built on
events or callbacks — the replicas' main threads, Totem timers, CCS
rounds — runs unmodified on either kernel.  The one semantic difference
is that URGENT/NORMAL priority ties cannot be enforced against a real
clock; asyncio's FIFO ready queue and same-deadline timers are the live
equivalent, and real timestamps never tie exactly anyway.

Unheeded failures (a failed event nobody waits on) cannot be raised from
inside a loop callback without asyncio swallowing them, so they are
collected and re-raised at the next :meth:`run` / :meth:`run_process`
boundary; a daemon running the loop directly drains them via
:meth:`drain_failures`.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Generator, List, Optional

from ..errors import SimulationError
from ..sim.kernel import Deadline, Event, Simulator


class LiveKernel(Simulator):
    """Drop-in :class:`~repro.sim.kernel.Simulator` over an asyncio loop."""

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None):
        super().__init__()
        self.loop = loop or asyncio.new_event_loop()
        self._t0 = self.loop.time()
        self._failures: List[BaseException] = []
        self._closed = False

    # -- clock ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Real seconds since kernel construction (monotonic)."""
        return self.loop.time() - self._t0

    # -- queueing ------------------------------------------------------

    def _queue_event(self, event: Event, priority: int, delay: float = 0.0) -> None:
        # asyncio's ready queue and same-deadline timers are FIFO like the
        # sim heap's stable-sequence tie-break; the priority lane collapses.
        if delay <= 0:
            self.loop.call_soon(self._fire_event, event)
        else:
            self.loop.call_later(delay, self._fire_event, event)

    def schedule(self, delay: float, callback: Callable, *args: Any) -> asyncio.Handle:
        """Run ``callback(*args)`` after ``delay`` real seconds; the
        handle :meth:`cancel` takes is the loop's own (a ``TimerHandle``
        unless the delay is zero)."""
        if delay < 0:
            raise SimulationError(f"negative schedule delay {delay!r}")
        if delay == 0:
            return self.loop.call_soon(callback, *args)
        return self.loop.call_later(delay, callback, *args)

    def _queue_deadline(self, deadline: Deadline) -> None:
        self.loop.call_later(max(0.0, deadline.when - self.now),
                             deadline._expire, deadline.seq)

    def _unheeded_failure(self, exception: BaseException) -> None:
        # Raising inside a loop callback would only get it logged.
        self._failures.append(exception)

    # -- failure surfacing ---------------------------------------------

    def drain_failures(self) -> List[BaseException]:
        """Return and clear failures of events nobody waited on."""
        failures, self._failures = self._failures, []
        return failures

    def _raise_pending(self) -> None:
        if self._failures:
            failure = self._failures[0]
            self._failures = []
            raise failure

    # -- execution -----------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Drive the loop until kernel time reaches ``until``.

        Unlike the simulator there is no event heap to drain, so an
        explicit ``until`` is required; ``max_events`` is not supported
        against a real clock.
        """
        if until is None:
            raise SimulationError("LiveKernel.run() requires an explicit 'until' time")
        if max_events is not None:
            raise SimulationError("LiveKernel.run() does not support max_events")
        delta = until - self.now
        if delta > 0:
            self.loop.run_until_complete(asyncio.sleep(delta))
        self._raise_pending()
        return self.now

    def run_process(self, generator: Generator, name: str = "",
                    timeout: Optional[float] = None) -> Any:
        """Spawn ``generator`` and block the caller until it finishes.

        ``timeout`` bounds the real-time wait (the sim detects deadlock
        by heap exhaustion; a live kernel has no such signal).
        """
        proc = self.process(generator, name=name)
        future = self.loop.create_future()

        def _done(event: Event) -> None:
            if not future.done():
                future.set_result(None)

        proc._add_callback(_done)
        waiter = asyncio.wait_for(future, timeout)
        try:
            self.loop.run_until_complete(waiter)
        except asyncio.TimeoutError:
            raise SimulationError(
                f"process {proc.name!r} did not finish within {timeout}s") from None
        self._raise_pending()
        if proc._ok:
            return proc._value
        proc.defuse()
        raise proc._value

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        """Close the owned event loop (idempotent)."""
        if not self._closed:
            self._closed = True
            if not self.loop.is_running() and not self.loop.is_closed():
                self.loop.close()
