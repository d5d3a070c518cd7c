"""Cross-node causal tracing: trace shards and the span assembler.

One client call touches many processes: the caller (``op.send``), a
daemon's gateway (``op.gateway``), every replica that executes it
(``op.execute``), the time service that serves it (``op.served``), the
CCS round that produced the value (``round.won``) and the gateway that
forwards the first reply (``op.reply``, ``op.reply_recv`` on the
client).  Every ``op.*`` event is named by the operation's key
(:func:`~repro.trace.op_trace_id`), so the per-node streams re-join
after the fact:

* :class:`TraceShardWriter` appends a tracer's events to one JSONL
  *shard* per node (``repro serve --trace-dir``, a chaos run's
  artifacts directory);
* :class:`CrossNodeSpanAssembler` stitches shard records into one
  :class:`OpTimeline` per operation key, binding each serve by ``(node,
  request_index)`` and its CCS round by ``(node, thread, round)``; the
  ``round.*`` records of that key fold into one :class:`RoundSpan`;
* ``python -m repro trace --shards DIR`` renders the result.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, IO, Iterable, List, Optional, Tuple, Union

from .. import trace
from .export import read_jsonl, trace_event_record

#: Canonical hop order within one operation; cross-process timestamps
#: share no epoch, so ordering is causal (by stage), not temporal.
STAGE_ORDER = (
    "client.send",
    "gateway.dedup",
    "gateway.inject",
    "execute",
    "round.won",
    "served",
    "reply.forward",
    "reply.recv",
)

#: Each keyed ``op.*`` kind -> its stage (``op.gateway`` of a retry is
#: ``gateway.dedup``), and the record fields its hop keeps.
_HOPS = {"op.send": "client.send", "op.gateway": "gateway.inject",
         "op.execute": "execute", "op.reply": "reply.forward",
         "op.reply_recv": "reply.recv"}
_DETAIL = {"op.send": ("method",), "op.execute": ("req", "method"),
           "op.reply": ("replica",), "op.reply_recv": ("replies",)}

_SHARD_PREFIX = "trace-"


def _safe_node(node: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]", "_", node) or "unknown"


def shard_path(directory: Union[str, Path], node: str) -> Path:
    """The shard file one node's events land in."""
    return Path(directory) / f"{_SHARD_PREFIX}{_safe_node(node)}.jsonl"


class TraceShardWriter:
    """Streams a tracer's events into per-node JSONL shard files.

    Files are opened lazily (one per node seen) and flushed on
    :meth:`close`.
    """

    def __init__(self, directory: Union[str, Path], tracer: trace.Tracer):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._files: Dict[str, IO[str]] = {}
        self._unsubscribe = tracer.subscribe(self._on_event)
        self.events_written = 0

    def _on_event(self, event: trace.TraceEvent) -> None:
        line = json.dumps(trace_event_record(event), default=str) + "\n"
        handle = self._files.get(event.node)
        if handle is None:
            handle = open(shard_path(self.directory, event.node), "a",
                          encoding="utf-8")
            self._files[event.node] = handle
        handle.write(line)
        self.events_written += 1

    def shards(self) -> List[Path]:
        return sorted(shard_path(self.directory, node)
                      for node in self._files)

    def close(self) -> None:
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        for handle in self._files.values():
            handle.close()
        self._files.clear()

    def __enter__(self) -> "TraceShardWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_shards(directory: Union[str, Path]) -> List[dict]:
    """Every trace record from every shard file in ``directory``.

    Tolerant of truncated shards (a crashed daemon may have died
    mid-line): malformed lines are skipped, matching
    :func:`~repro.obs.export.read_jsonl`.
    """
    records: List[dict] = []
    for path in sorted(Path(directory).glob(f"{_SHARD_PREFIX}*.jsonl")):
        records.extend(r for r in read_jsonl(path)
                       if r.get("record") == "trace")
    return records


@dataclass
class Hop:
    """One stage of an operation's journey, on one node."""

    stage: str
    node: str
    t: Optional[float] = None
    detail: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {"stage": self.stage, "node": self.node, "t": self.t,
                **self.detail}


@dataclass
class OpTimeline:
    """One client operation, end to end, across every node it touched."""

    #: The operation key (:func:`repro.trace.op_trace_id`).
    trace_id: str
    client: str = "?"
    method: Optional[str] = None
    hops: List[Hop] = field(default_factory=list)

    def stages(self) -> List[str]:
        return [hop.stage for hop in self.hops]

    @property
    def complete(self) -> bool:
        """The full acceptance chain was observed: client send → gateway
        inject → replica serve → CCS round won → reply received.  A
        fast-path serve is its own value: no round produced it."""
        seen = set(self.stages())
        if any(hop.stage == "served" and hop.detail.get("fast")
               for hop in self.hops):
            seen.add("round.won")
        return {"client.send", "gateway.inject", "served",
                "round.won", "reply.recv"} <= seen

    @property
    def nodes(self) -> List[str]:
        ordered: List[str] = []
        for hop in self.hops:
            if hop.node not in ordered:
                ordered.append(hop.node)
        return ordered

    def sort(self) -> None:
        rank = {stage: i for i, stage in enumerate(STAGE_ORDER)}
        self.hops.sort(key=lambda hop: (rank.get(hop.stage, len(rank)),
                                        hop.node,
                                        hop.t if hop.t is not None else 0.0))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "client": self.client,
            "method": self.method,
            "complete": self.complete,
            "nodes": self.nodes,
            "hops": [hop.to_dict() for hop in self.hops],
        }


@dataclass
class RoundSpan:
    """The lifecycle of one CCS round at one replica, folded from its
    ``round.start`` / ``sent`` / ``won`` / ``suppressed`` / ``adopted`` /
    ``complete`` records.  They arrive in any order: on a slow replica
    the winner is often ordered *before* the local round starts (the
    input-buffer short-circuit of Figure 2, line 11).
    """

    node: str
    thread: str
    round_number: int
    #: Kernel-time bounds (seconds); None until observed.
    started_at: Optional[float] = None
    completed_at: Optional[float] = None
    #: The local proposal and the winning group value (microseconds).
    proposal_us: Optional[int] = None
    group_us: Optional[int] = None
    #: The round's synchronizer (the sender of the winning CCS message).
    winner: Optional[str] = None
    #: my_clock_offset after the round committed (microseconds).
    offset_us: Optional[int] = None
    #: The interposed call that started the round (gettimeofday, ...).
    call: Optional[str] = None
    #: Our CCS message was handed to Totem / withdrawn before it went.
    sent: bool = False
    suppressed: bool = False
    #: The winner was already buffered when the round started (no CCS
    #: message constructed at all).
    from_buffer: bool = False
    #: A special recovery round (offset adopted mid-recovery).
    adopted: bool = False

    @property
    def won_locally(self) -> bool:
        """True if this replica was the round's synchronizer."""
        return self.winner == self.node

    @property
    def latency_us(self) -> Optional[float]:
        if self.started_at is None or self.completed_at is None:
            return None
        return (self.completed_at - self.started_at) * 1e6

    def fold(self, r: dict) -> None:
        """Fold one of this round's records in."""
        kind = r["kind"]
        if kind == "round.start":
            self.started_at = r.get("t")
            self.proposal_us = r.get("proposal_us")
            self.call = r.get("call")
            self.from_buffer = bool(r.get("buffered"))
        elif kind == "round.sent":
            self.sent = True
        elif kind == "round.won":
            self.winner = r.get("winner")
            self.group_us = r.get("group_us")
        elif kind == "round.suppressed":
            self.suppressed = True
        elif kind == "round.adopted":
            self.adopted = True
            self.offset_us = r.get("offset_us")
        elif kind == "round.complete":
            self.completed_at = r.get("t")
            if r.get("group_us") is not None:
                self.group_us = r.get("group_us")
            self.offset_us = r.get("offset_us", self.offset_us)

    def to_dict(self) -> dict:
        return {
            "node": self.node,
            "thread": self.thread,
            "round": self.round_number,
            "started_at": self.started_at,
            "completed_at": self.completed_at,
            "latency_us": self.latency_us,
            "proposal_us": self.proposal_us,
            "group_us": self.group_us,
            "winner": self.winner,
            "won_locally": self.won_locally,
            "offset_us": self.offset_us,
            "call": self.call,
            "sent": self.sent,
            "suppressed": self.suppressed,
            "from_buffer": self.from_buffer,
            "adopted": self.adopted,
        }


class CrossNodeSpanAssembler:
    """Stitches per-node trace records into end-to-end op timelines
    and CCS round spans.

    Every ``op.*`` record joins the timeline its operation key names;
    ``op.served`` (the time service knows the request, not the client)
    joins by ``(node, req)`` through that node's ``op.execute``, and a
    serve's CCS round by ``(node, thread, round)``.  The ``round.*``
    records of that key fold into one :class:`RoundSpan`.
    """

    def __init__(self):
        self._records: List[dict] = []

    def add(self, record: dict) -> None:
        self._records.append(record)

    def add_events(self, records: Iterable[dict]) -> None:
        for record in records:
            self.add(record)

    # -- assembly --------------------------------------------------------

    def assemble(self) -> List[OpTimeline]:
        timelines: Dict[str, OpTimeline] = {}
        req_to_trace: Dict[Tuple[str, Any], str] = {}
        round_won: Dict[Tuple[str, Any, Any], dict] = {}
        served: List[dict] = []

        # Pass 1: every keyed hop joins its timeline; index the rest.
        for r in self._records:
            kind = r.get("kind")
            if kind == "round.won":
                round_won[(r.get("node"), r.get("thread"),
                           r.get("round"))] = r
                continue
            if kind == "op.served":
                served.append(r)
                continue
            trace_id = r.get("trace")
            if not trace_id or kind not in _HOPS:
                continue
            entry = timelines.get(trace_id)
            if entry is None:
                entry = timelines[trace_id] = OpTimeline(trace_id)
            node = r.get("node", "?")
            if kind == "op.send":
                entry.client = node
                entry.method = r.get("method")
            elif kind == "op.execute" and r.get("req") is not None:
                req_to_trace[(node, r["req"])] = trace_id
            stage = ("gateway.dedup" if kind == "op.gateway" and r.get("dedup")
                     else _HOPS[kind])
            entry.hops.append(Hop(stage, node, r.get("t"),
                                  {k: r.get(k) for k in _DETAIL.get(kind, ())}))

        # Pass 2: serves join by request index; each non-fast serve pulls
        # in the CCS round that produced its value.
        for r in served:
            node = r.get("node", "?")
            trace_id = req_to_trace.get((node, r.get("req")))
            if trace_id is None:
                continue
            entry = timelines[trace_id]
            entry.hops.append(
                Hop("served", node, r.get("t"),
                    {"round": r.get("round"), "fast": r.get("fast"),
                     "group_us": r.get("group_us")}))
            if r.get("round") is not None:
                winner = round_won.get((node, r.get("thread"),
                                        r.get("round")))
                if winner is not None:
                    entry.hops.append(
                        Hop("round.won", node, winner.get("t"),
                            {"round": winner.get("round"),
                             "winner": winner.get("winner"),
                             "group_us": winner.get("group_us")}))

        for entry in timelines.values():
            entry.sort()
        return sorted(timelines.values(), key=lambda t: t.trace_id)

    def round_spans(self) -> List[RoundSpan]:
        """Every completed round's span, in ``round.complete`` order.  A
        record after its round completed opens a new span."""
        open_spans: Dict[Tuple[str, Any, Any], RoundSpan] = {}
        completed: List[RoundSpan] = []
        for r in self._records:
            kind = r.get("kind", "")
            key = (r.get("node"), r.get("thread"), r.get("round"))
            if not kind.startswith("round.") or None in key[1:]:
                continue
            span = open_spans.get(key)
            if span is None:
                span = open_spans[key] = RoundSpan(*key)
            span.fold(r)
            if kind == "round.complete":
                completed.append(open_spans.pop(key))
        return completed

    def winner_counts(self) -> Dict[str, int]:
        """Rounds decided per synchronizer, over completed spans."""
        return dict(Counter(span.winner for span in self.round_spans()
                            if span.winner is not None))


def assemble_timelines(directory: Union[str, Path]) -> List[OpTimeline]:
    """Convenience: load every shard in ``directory`` and assemble."""
    assembler = CrossNodeSpanAssembler()
    assembler.add_events(load_shards(directory))
    return assembler.assemble()
