"""The execution context handed to replicated application code.

Application methods are written as generators that ``yield`` context
events, e.g.::

    def get_time(ctx):
        yield ctx.compute(50e-6)            # some work
        now = yield ctx.gettimeofday()      # interposed clock read
        return {"sec": now.seconds, "usec": now.microseconds}

The context hides which time source is plugged in: under the consistent
time service ``gettimeofday()`` runs a CCS round; under a baseline it
reads a physical clock.  This mirrors the paper's library
interpositioning, which makes the service "transparent to the
application".
"""

from __future__ import annotations

import math
from typing import Optional, TYPE_CHECKING

from ..sim.clock import ClockValue
from ..sim.kernel import Event, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from .replica import Replica

#: Operating systems round sleeps up to a clock tick (paper Section 4.2:
#: "typical sleep system calls are rounded to an integral number of clock
#: ticks ... a multiple of 10 ms").
OS_TICK_S = 0.010


class ReplicaContext:
    """Per-thread facade over the node, scheduler and time source."""

    def __init__(
        self,
        replica: "Replica",
        thread_id: str,
        request_index: Optional[int] = None,
    ):
        self.replica = replica
        self.thread_id = thread_id
        self.node = replica.node
        self.sim = replica.sim
        #: Position of the request being executed in the total order, or
        #: None for dedicated threads.  It names each clock read
        #: replica-independently as ``(request_index, read_seq)``.
        self.request_index = request_index
        self._read_seq = 0

    # -- CPU ------------------------------------------------------------

    def compute(self, seconds: float) -> Timeout:
        """Consume ``seconds`` of CPU work (jittered per node)."""
        return self.node.compute(seconds)

    def busy_loop(self, iterations: int) -> Timeout:
        """The paper's empty-iteration delay loop (Section 4.2)."""
        return self.node.busy_loop(iterations)

    def sleep(self, seconds: float) -> Timeout:
        """An OS sleep: rounded *up* to a whole 10 ms scheduler tick,
        which is exactly why the paper uses busy loops for fine delays."""
        ticks = max(1, math.ceil(seconds / OS_TICK_S))
        return self.sim.timeout(ticks * OS_TICK_S)

    # -- interposed clock-related system calls ---------------------------

    def gettimeofday(self, after_us: Optional[int] = None) -> Event:
        """``gettimeofday()``: microsecond granularity.

        ``after_us`` is an optional session floor — the caller's
        last-seen time.  It travels with the (totally ordered) request,
        so every replica serves a value strictly above it: a client that
        echoes each reply into its next call reads monotonically even
        across replica failover and drift-bounded fast-path reads, which
        are otherwise only monotone per replica.
        """
        return self._read("gettimeofday", after_us)

    def time(self) -> Event:
        """``time()``: whole seconds."""
        return self._read("time")

    def ftime(self) -> Event:
        """``ftime()``: millisecond granularity."""
        return self._read("ftime")

    def _read(self, call_name: str, after_us: Optional[int] = None) -> Event:
        op_id = None
        if self.request_index is not None:
            self._read_seq += 1
            op_id = (self.request_index, self._read_seq)
        # The operation's context reads the physical clock once (Figure 2,
        # line 3); the time source reads none of its own.
        physical_us = self.node.read_clock_us()
        return self.replica.time_source.read(
            self.thread_id, call_name, physical_us, op_id=op_id,
            floor_us=after_us)

    # -- instrumentation only ---------------------------------------------

    def physical_clock(self) -> ClockValue:
        """Read the node's raw physical clock, bypassing the time source.

        Only measurement code uses this (e.g. Figure 6 compares the group
        clock against physical clocks); replicated application logic must
        use the interposed calls above or replicas diverge.
        """
        return self.node.read_clock()
