"""Baseline: primary/backup clock reading (related work [9], [3]).

The primary replica answers clock-related operations from *its own*
physical hardware clock and conveys each value to the backups, which use
the conveyed values instead of their own clocks.  This solves agreement
for individual readings, but — as the paper argues in Section 1 — it
does **not** keep the clock monotone across a primary failure: the new
primary starts answering from its own physical clock, which may be
*behind* the old primary's (clock roll-back, breaking causality) or far
ahead (fast-forward, spurious timeouts).

The consistent time service exists precisely to remove this hazard; this
module is the comparator that exhibits it.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, TYPE_CHECKING

from ..core.interposition import resolve_call
from ..replication.codec import _pack_str, _unpack_str, register_body_codec
from ..replication.envelope import Envelope, MsgType, make_envelope
from ..replication.timesource import TimeSource
from ..sim.clock import ClockValue
from ..sim.kernel import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..replication.group import GroupView
    from ..replication.replica import Replica


@dataclass(frozen=True)
class ConveyedClockValue:
    """The primary's clock value, conveyed to the backups."""

    thread_id: str
    seq: int
    micros: int
    call_type_id: int

    def wire_size(self) -> int:
        return 32


#: seq, micros, call type.
_CONVEYED = struct.Struct("<qqB")


def _encode_conveyed(body: ConveyedClockValue) -> bytes:
    return _pack_str(body.thread_id) + _CONVEYED.pack(
        body.seq, body.micros, body.call_type_id)


def _decode_conveyed(buffer: bytes, offset: int):
    thread_id, offset = _unpack_str(buffer, offset)
    fields = _CONVEYED.unpack_from(buffer, offset)
    return ConveyedClockValue(thread_id, *fields), offset + _CONVEYED.size


# Self-registration keeps the baseline transmittable over the live wire
# without the codec importing this module.
register_body_codec(16, ConveyedClockValue, _encode_conveyed, _decode_conveyed)


class _ThreadBuffer:
    """Conveyed values for one logical thread, with one blocked waiter."""

    def __init__(self):
        self.items: List[int] = []
        self.waiters: List[Event] = []

    def put(self, micros: int) -> None:
        while self.waiters:
            waiter = self.waiters.pop(0)
            if not waiter.triggered:
                waiter.succeed(micros)
                return
        self.items.append(micros)

    def get(self, sim) -> Event:
        event = Event(sim)
        if self.items:
            event.succeed(self.items.pop(0))
        else:
            self.waiters.append(event)
        return event

    @property
    def blocked(self) -> int:
        return sum(1 for w in self.waiters if not w.triggered)


class PrimaryBackupClockSource(TimeSource):
    """Primary reads its physical clock; backups adopt conveyed values."""

    name = "primary-backup-clock"

    def __init__(self, replica: "Replica"):
        self.replica = replica
        self.node = replica.node
        self.sim = replica.sim
        self._buffers: Dict[str, _ThreadBuffer] = {}
        self._seq: Dict[str, int] = {}
        self.conveyed_sent = 0
        self.conveyed_consumed = 0

    # ------------------------------------------------------------------

    def read(self, thread_id: str, call_name: str, physical_us: int, *,
             op_id=None, fast_ok: bool = True, floor_us=None) -> Event:
        call = resolve_call(call_name)
        if self.replica.is_primary:
            self._convey(thread_id, physical_us, call.type_id)
            value = ClockValue(call.quantize(physical_us))
            self._record(thread_id, call.name, value)
            event = Event(self.sim)
            event.succeed(value)
            return event
        # Backup: adopt the next value the primary conveyed for this thread.
        buffer = self._buffer(thread_id)
        raw = buffer.get(self.sim)
        result = Event(self.sim)

        def _finish(event: Event) -> None:
            self.conveyed_consumed += 1
            value = ClockValue(call.quantize(event.value))
            self._record(thread_id, call.name, value)
            if not result.triggered:
                result.succeed(value)

        raw._add_callback(_finish)
        return result

    def _convey(self, thread_id: str, micros: int, call_type_id: int) -> None:
        seq = self._seq.get(thread_id, 0) + 1
        self._seq[thread_id] = seq
        self.conveyed_sent += 1
        self.replica.endpoint.mcast(
            make_envelope(
                MsgType.CCS,
                self.replica.group,
                self.replica.group,
                0,
                seq,
                self.node.node_id,
                body=ConveyedClockValue(thread_id, seq, micros, call_type_id),
            )
        )

    def handle_ccs(self, envelope: Envelope, physical_us: int) -> None:
        conveyed = envelope.body
        if not isinstance(conveyed, ConveyedClockValue):
            return
        if envelope.sender == self.node.node_id:
            return  # our own conveyance echoed back
        self._buffer(conveyed.thread_id).put(conveyed.micros)

    def on_view_change(self, view: "GroupView") -> None:
        """Failover: a backup that just became primary must answer any
        blocked reads from its own clock — this is the moment the clock
        can roll back or jump forward."""
        if view.primary != self.node.node_id:
            return
        for buffer in self._buffers.values():
            while buffer.blocked > len(buffer.items):
                buffer.put(self.node.read_clock_us())

    def finish_recovery(self) -> None:
        """State transfer completed: values conveyed before this point
        are reflected in the transferred application state (every request
        ordered after our GET_STATE is queued and its values are conveyed
        after the STATE message), so the buffers start empty."""
        for buffer in self._buffers.values():
            buffer.items.clear()

    def _buffer(self, thread_id: str) -> _ThreadBuffer:
        if thread_id not in self._buffers:
            self._buffers[thread_id] = _ThreadBuffer()
        return self._buffers[thread_id]
