"""The flight recorder: a bounded ring of recent telemetry per node.

Post-mortem debugging needs the *last* few hundred events: when a
daemon crashes or the chaos oracle flags a violation, what matters is
what the node saw just before.  The recorder keeps two
``deque(maxlen=...)`` rings — every event of the bed's tracer, and one
digest per datagram a live UDP port sent or received (fed by
:meth:`~repro.net.udp.UdpTransport.record_frames`) — and
:meth:`FlightRecorder.dump` writes them to a JSON artifact.  The daemon
and a judged run each build their own; a port with none attached pays
one attribute check per frame.
"""

from __future__ import annotations

import json
import time
from collections import deque
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from .. import trace


class FlightRecorder:
    """Bounded rings of recent trace events and wire-frame digests."""

    def __init__(self, events_capacity: int = 512,
                 frames_capacity: int = 256):
        self.events_capacity = events_capacity
        self.frames_capacity = frames_capacity
        self._events: deque = deque(maxlen=events_capacity)
        self._frames: deque = deque(maxlen=frames_capacity)
        self._unsubscribe = None
        self.enabled = False
        #: Paths of every artifact written so far (newest last).
        self.dumps: List[str] = []

    # -- lifecycle -------------------------------------------------------

    def start(self, tracer: trace.Tracer) -> "FlightRecorder":
        """Begin recording (idempotent): subscribe to the bed's tracer
        and accept frame digests."""
        if self._unsubscribe is None:
            self._unsubscribe = tracer.subscribe(self._on_event)
        self.enabled = True
        return self

    def stop(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        self.enabled = False

    # -- recording -------------------------------------------------------

    def _on_event(self, event: trace.TraceEvent) -> None:
        record = {"kind": event.kind, "node": event.node,
                  "wall": time.time()}
        record.update(event.fields)
        self._events.append(record)

    def record_frame(self, node: str, direction: str, peer: Any,
                     kind: str, size: int,
                     trace_id: Optional[str] = None) -> None:
        """One wire-frame digest (``direction`` is ``tx`` or ``rx``)."""
        if not self.enabled:
            return
        self._frames.append({
            "node": node, "dir": direction, "peer": str(peer),
            "kind": kind, "size": size, "trace": trace_id,
            "wall": time.time(),
        })

    # -- artifacts -------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """The rings as JSON-able lists (oldest first)."""
        return {
            "events": list(self._events),
            "frames": list(self._frames),
            "events_capacity": self.events_capacity,
            "frames_capacity": self.frames_capacity,
        }

    def dump(self, path: Union[str, Path], *, reason: str,
             context: Optional[Dict[str, Any]] = None) -> str:
        """Write the recorder window to ``path`` as a JSON artifact."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        artifact = {
            "artifact": "flight-recorder",
            "reason": reason,
            "dumped_at": time.time(),
            "context": context or {},
        }
        artifact.update(self.snapshot())
        path.write_text(json.dumps(artifact, indent=2, default=str) + "\n",
                        encoding="utf-8")
        self.dumps.append(str(path))
        return str(path)
