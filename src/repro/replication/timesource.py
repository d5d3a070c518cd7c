"""The time-source interface replicas read their clocks through.

Application code never touches the node's hardware clock directly; every
clock-related operation goes through the replica's :class:`TimeSource`
(the simulation counterpart of the paper's library interpositioning of
``gettimeofday()`` and friends).  Implementations:

* :class:`repro.core.time_service.ConsistentTimeService` — the paper's
  contribution (group clock via CCS rounds).
* :class:`repro.baselines.local_clock.LocalClockSource` — raw physical
  clocks (the broken status quo of Figure 1).
* :class:`repro.baselines.primary_backup.PrimaryBackupClockSource` — the
  related-work approach ([9], [3]): primary reads its clock and conveys
  the value.
* :class:`repro.baselines.ntp.NtpDisciplinedSource` — software clock
  synchronization; clocks agree within a bound but reads still diverge.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional, TYPE_CHECKING

from ..sim.kernel import NORMAL, Event

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .envelope import Envelope
    from .group import GroupView


class ClockRead(Event):
    """The event a read returns when it may complete later, inside the
    time service (the consistent time service's rounds): a replica that
    overlaps reads (deployed with ``coalesce``) parks the execution that
    yields it and admits the next request; a serial one holds its main
    thread until the read completes, as on any other event.

    A read nothing waits on through the kernel completes without a
    kernel event: completing it calls the :attr:`waiter` of an execution
    parked on it there and then, and a callback added later runs through
    ``call_soon``, as on any processed event."""

    __slots__ = ("waiter",)

    def __init__(self, sim) -> None:
        super().__init__(sim)
        #: Set while an execution is parked on this read.
        self.waiter: Optional[Callable[["ClockRead"], None]] = None

    def succeed(self, value: Any = None, priority: int = NORMAL) -> Event:
        if self.callbacks != []:  # kernel waiters, or completed already
            return super().succeed(value, priority)
        return self._complete(True, value)

    def fail(self, exception: BaseException, priority: int = NORMAL) -> Event:
        if self.callbacks != []:
            return super().fail(exception, priority)
        return self._complete(False, exception)

    def _complete(self, ok: bool, value: Any) -> Event:
        self._ok, self._value, self.callbacks = ok, value, None
        waiter, self.waiter = self.waiter, None
        if waiter is not None:
            waiter(self)
        return self


class HistoryRecorder:
    """One time source's experiment records.  A serving replica keeps
    O(1) clock state (Figure 2); what experiments, the oracle and tests
    read back after a run goes to a recorder if one is attached
    (``bed.record()``), nowhere otherwise.  Baselines fill ``readings``."""

    def __init__(self) -> None:
        #: (sim_time, thread_id, call, ClockValue) per value returned.
        self.readings: List[tuple] = []
        #: (thread_id, round, winner_node) per accepted round (Figure 6).
        self.winners: List[tuple] = []
        #: (thread_id, op_id) -> group value per round-served operation:
        #: replica-independent, the agreement invariant the suites check.
        self.served_ops: Dict[tuple, int] = {}
        #: (sim_time, value_us, staleness_us) per fast-path read.
        self.fast_served: List[tuple] = []
        #: (group_us, physical_us, offset_us) per committed round.
        self.history: List[tuple] = []


class TimeSource(abc.ABC):
    """Pluggable provider of clock readings for one replica."""

    #: Human-readable name used in experiment reports.
    name = "abstract"

    #: Where the source hands what it serves; ``None`` until asked
    #: (``bed.record()``): no per-operation history is kept.
    recorder: Optional[HistoryRecorder] = None

    def _record(self, thread_id: str, call_name: str, value) -> None:
        """Hand one served value to the recorder, if one is attached."""
        if self.recorder is not None:
            self.recorder.readings.append(
                (self.sim.now, thread_id, call_name, value))

    @abc.abstractmethod
    def read(self, thread_id: str, call_name: str, physical_us: int, *,
             op_id: Optional[tuple] = None, fast_ok: bool = True,
             floor_us: Optional[int] = None) -> Event:
        """Begin one clock-related operation on behalf of ``thread_id``.

        Returns a simulation event that fires with the
        :class:`~repro.sim.clock.ClockValue` result.  ``call_name`` names
        the interposed system call (``gettimeofday``, ``time`` or
        ``ftime``) and controls the granularity of the returned value.
        ``physical_us`` is the physical clock, read once in the operation's
        context (Figure 2, line 3); a source reads no clock of its own.
        ``op_id`` names the operation replica-independently as
        ``(request_index, read_seq)`` (None on a dedicated thread),
        ``fast_ok=False`` asks for a value no local shortcut served, and
        ``floor_us`` is the request's session floor; a source ignores
        any it has no use for.
        """

    # -- protocol plumbing (no-ops for sources that need none) -----------

    def handle_ccs(self, envelope: "Envelope", physical_us: int) -> None:
        """An ordered CCS control message arrived for this replica;
        ``physical_us`` is the physical clock read at its delivery."""

    def handle_raw_ccs(self, envelope: "Envelope") -> None:
        """A CCS message was *observed* on the wire before ordering
        completed (early duplicate-suppression opportunity); withdrawing
        what it beat depends on no time, so no clock is read for it."""

    def on_view_change(self, view: "GroupView") -> None:
        """The replica's group membership view changed."""

    def note_min_active_request(self, min_request_index: int) -> None:
        """The replica finished every request below this index."""

    # -- state transfer (Section 3.2, "Integration of New Clocks") -------

    def abort_in_flight(self) -> None:
        """Abort clock operations blocked mid-round.

        Called when a replica abandons its current protocol position
        (e.g. rejoining the primary component after a partition): blocked
        operations fail with :class:`~repro.errors.TimeServiceError`,
        which the request executor surfaces as an application error."""

    def begin_recovery(self) -> None:
        """This replica is recovering: adopt the group clock from the
        CCS messages that arrive (the special round), do not compete."""

    def finish_recovery(self) -> None:
        """State transfer completed; resume normal operation."""

    def get_transfer_state(self) -> object:
        """Replica-independent time-service state for a checkpoint
        (per-thread round numbers etc. — never clock offsets, which are
        derived from each replica's own physical clock)."""
        return None

    def set_transfer_state(self, state: object) -> None:
        """Adopt time-service state from a checkpoint: a state transfer's,
        or a passive primary's periodic one."""
