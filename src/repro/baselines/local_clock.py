"""Baseline: raw local clocks — no time service at all.

Each replica answers clock-related calls from its own physical hardware
clock.  This is the status quo the paper's Figure 1 motivates against:
replicas execute the same logical operation at different real times on
differently-set clocks, so they return *different* values and replica
consistency is lost.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..core.interposition import resolve_call
from ..replication.timesource import TimeSource
from ..sim.clock import ClockValue
from ..sim.kernel import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..replication.replica import Replica


class LocalClockSource(TimeSource):
    """Serves the hosting node's physical clock reading, nothing more."""

    name = "local-clock"

    def __init__(self, replica: "Replica"):
        self.replica = replica
        self.sim = replica.sim

    def read(self, thread_id: str, call_name: str, physical_us: int, *,
             op_id=None, fast_ok: bool = True, floor_us=None) -> Event:
        call = resolve_call(call_name)
        value = ClockValue(call.quantize(physical_us))
        self._record(thread_id, call.name, value)
        event = Event(self.sim)
        event.succeed(value)
        return event
