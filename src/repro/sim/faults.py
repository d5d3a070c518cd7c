"""Declarative fault injection: scripted crash / recovery / partition
schedules.

The evaluation and the chaos tests need reproducible fault scenarios —
"crash n2 at t=1.5 ms, partition {n0,n1} from {n2,n3} at t=4 ms, heal at
t=9 ms".  A :class:`FaultPlan` captures such a script and arms it on a
testbed; every injected fault is recorded for the experiment report.

The vocabulary is declared once, in :data:`FAULT_KINDS`: per kind, its
scenario arguments, which target items are node ids, what it needs of
the bed and its injector.  Scenario compilation
(:func:`repro.chaos.scenario.compile_plan`), arm-time validation and
injection are loops over that table, so adding a kind is one entry plus
its typed builder method.

One plan arms against either substrate:

* the simulated :class:`~repro.testbed.Testbed` (crash / recover /
  partition / heal, injected into the modelled LAN), or
* a :class:`~repro.net.testbed.LiveTestbed` carrying a
  :class:`~repro.chaos.transport.ChaosTransport` (``bed.chaos``), which
  additionally supports the wire impairments — ``drop``, ``delay``,
  ``duplicate``, ``reorder``, ``isolate``, ``lie``, ``equivocate``.
  Crash and recover map to the live node's stop/restart (the in-process
  equivalent of stopping and restarting a ``repro serve`` daemon).

Reproducibility: :meth:`FaultPlan.schedule_hash` digests the canonical
event schedule, so two compilations of the same scenario with the same
seed are byte-identical — pinned by a regression test.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ..errors import ConfigurationError


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault action."""

    at_s: float
    kind: str       # a key of FAULT_KINDS
    target: Tuple = ()

    def __str__(self) -> str:
        return f"{self.kind}{self.target} @ {self.at_s * 1000:.2f} ms"

    def canonical(self) -> str:
        """A stable one-line form for hashing and verdict transcripts."""
        parts = []
        for item in self.target:
            if isinstance(item, frozenset):
                parts.append("{" + ",".join(sorted(item)) + "}")
            elif callable(item):
                parts.append(getattr(item, "__name__", "callback"))
            else:
                parts.append(repr(item))
        return f"{self.at_s!r} {self.kind} [{' '.join(parts)}]"


# ---------------------------------------------------------------------------
# The fault vocabulary
# ---------------------------------------------------------------------------


class Arg(NamedTuple):
    """One scenario argument of a fault kind; it becomes one target item."""

    key: str                          # the key in a scenario event mapping
    coerce: Callable[[Any], Any]      # converts and validates the value
    default: Any = None               # the target item when the key is absent


def _as_given(value: Any) -> Any:
    return value


def _rate(value: Any) -> float:
    rate = float(value)
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"rate must be in [0, 1], got {rate}")
    return rate


def _seconds(value: Any) -> float:
    seconds = float(value)
    if seconds < 0:
        raise ConfigurationError(
            f"delay, jitter and window must be non-negative, got {seconds}")
    return seconds


def _check_partition(event: FaultEvent, known: set) -> None:
    unknown = set().union(*event.target) - known
    if unknown:
        raise ConfigurationError(
            f"fault event {event} partitions unknown node(s) "
            f"{sorted(unknown)}; nodes are {sorted(known)}")
    seen: set = set()
    for component in event.target:
        overlap = seen & component
        if overlap:
            raise ConfigurationError(
                f"fault event {event} lists node(s) {sorted(overlap)} in "
                f"more than one partition component; components must be "
                f"disjoint")
        seen |= component


@dataclass(frozen=True)
class FaultKind:
    """One entry of the fault vocabulary."""

    #: Scenario arguments in target order, the first keyed by the kind's
    #: own name.  None: the kind cannot be written in a scenario file.
    args: Optional[Tuple[Arg, ...]]
    #: ``inject(surface, *target)``; the surface is what ``needs`` names,
    #: or the bed itself.
    inject: Callable[..., Any]
    #: What the kind needs beyond a bed: ``"chaos"`` (a chaos transport,
    #: ``bed.chaos``) or ``"control"`` (the control plane given to
    #: :meth:`FaultPlan.arm`).
    needs: Optional[str] = None
    #: Indices of the target items that are node ids (a None item
    #: matches any node).
    nodes: Tuple[int, ...] = ()
    #: ``"up"`` / ``"down"``: the state ``target[0]`` must be in at that
    #: point of the plan, and the state the event leaves it in.
    requires: Optional[str] = None
    leaves: Optional[str] = None
    #: Further arm-time validation: ``check(event, known_node_ids)``.
    check: Optional[Callable[[FaultEvent, set], None]] = None


_NODE = (0,)        # target[0] is the node acted on
_PAIR = (-2, -1)    # target[-2:] are the optional src / dst nodes
_SRC_DST = (Arg("src", _as_given), Arg("dst", _as_given))


def _surface(kind: FaultKind, bed, control):
    """What ``kind.inject`` is called on (None: the run lacks it)."""
    return {None: bed, "chaos": bed.chaos, "control": control}[kind.needs]


#: What a missing ``FaultKind.needs`` is called in the arm-time error.
_NEEDS = {
    "chaos": "a chaos transport; this testbed has none (live-only event "
             "on the simulator?)",
    "control": "a control plane; pass one to arm(control=...)",
}

FAULT_KINDS: Dict[str, FaultKind] = {
    "crash": FaultKind(
        (Arg("crash", str),), lambda bed, node: bed.crash(node),
        nodes=_NODE, requires="up", leaves="down"),
    "recover": FaultKind(
        (Arg("recover", str),), lambda bed, node: bed.recover(node),
        nodes=_NODE, requires="down", leaves="up"),
    "isolate": FaultKind(
        (Arg("isolate", str),), lambda chaos, node: chaos.isolate(node),
        needs="chaos", nodes=_NODE, requires="up"),
    # Topology faults: the modelled LAN or a live bed's chaos transport.
    "heal": FaultKind((), lambda bed: bed.cluster.network.heal()),
    # A scenario's partition value (node lists, or shard indices in a
    # sharded scenario) is expanded by compile_plan, which knows the
    # topology; the target is one frozenset per component.
    "partition": FaultKind(
        (), lambda bed, *components: bed.cluster.network.partition(
            *components),
        check=_check_partition),
    "drop": FaultKind(
        (Arg("drop", _rate),) + _SRC_DST,
        lambda chaos, rate, src, dst: chaos.set_drop(rate, src=src, dst=dst),
        needs="chaos", nodes=_PAIR),
    "delay": FaultKind(
        (Arg("delay", _seconds), Arg("jitter", _seconds, 0.0)) + _SRC_DST,
        lambda chaos, delay_s, jitter_s, src, dst: chaos.set_delay(
            delay_s, jitter_s=jitter_s, src=src, dst=dst),
        needs="chaos", nodes=_PAIR),
    "duplicate": FaultKind(
        (Arg("duplicate", _rate),) + _SRC_DST,
        lambda chaos, rate, src, dst: chaos.set_duplicate(
            rate, src=src, dst=dst),
        needs="chaos", nodes=_PAIR),
    "reorder": FaultKind(
        (Arg("reorder", _rate), Arg("window", _seconds, 0.01)) + _SRC_DST,
        lambda chaos, rate, window_s, src, dst: chaos.set_reorder(
            rate, window_s=window_s, src=src, dst=dst),
        needs="chaos", nodes=_PAIR),
    # Byzantine events.  A replica scripted to lie or equivocate is
    # faulty for the whole run; a state corruption is a transient fault
    # on a correct one and works on either substrate.
    "lie": FaultKind(
        (Arg("lie", str), Arg("bias", int, 0)),
        lambda chaos, node, bias_us: chaos.set_lie(node, bias_us),
        needs="chaos", nodes=_NODE, requires="up"),
    "equivocate": FaultKind(
        (Arg("equivocate", str), Arg("spread", int, 0)),
        lambda chaos, node, spread_us: chaos.set_equivocate(node, spread_us),
        needs="chaos", nodes=_NODE, requires="up"),
    "corrupt-state": FaultKind(
        (Arg("corrupt-state", str),),
        lambda bed, node: bed.corrupt_state(node),
        nodes=_NODE, requires="up"),
    # Control-plane reconfigurations.  Unlike crash, these are graceful:
    # a drain leaves the group through the total order and a join
    # re-admits via state transfer (recovering a crashed node first).
    # Both are no-ops when the plane judges them unsafe (draining the
    # last replica, joining a node that already serves), so randomized
    # interleavings stay valid whatever state the group is in.
    "drain": FaultKind(
        (Arg("drain", str),), lambda control, node: control.drain_async(node),
        needs="control", nodes=_NODE),
    "join": FaultKind(
        (Arg("join", str),), lambda control, node: control.join_async(node),
        needs="control", nodes=_NODE, leaves="up"),
    "call": FaultKind(None, lambda bed, fn: fn()),
}


class FaultPlan:
    """A reproducible schedule of fault injections.

    Build fluently, then :meth:`arm`::

        plan = (FaultPlan()
                .crash("n2", at=0.005)
                .partition({"n0", "n1"}, {"n3"}, at=0.010)
                .heal(at=0.050)
                .recover("n2", at=0.060))
        plan.arm(bed)
    """

    def __init__(self):
        self.events: List[FaultEvent] = []
        self.injected: List[FaultEvent] = []
        self._armed = False

    # -- construction -----------------------------------------------------

    def add(self, kind: str, *target, at: float) -> "FaultPlan":
        """Schedule one ``kind`` event: what every typed builder below
        (and the scenario compiler) comes down to.  The target items are
        converted and range-checked by the kind's argument declarations."""
        if self._armed:
            raise ConfigurationError("cannot extend an armed fault plan")
        if at < 0:
            raise ConfigurationError("fault time must be non-negative")
        args = FAULT_KINDS[kind].args or ()
        checked = tuple(arg.coerce(item) for arg, item in zip(args, target))
        self.events.append(
            FaultEvent(at, kind, checked + tuple(target[len(checked):])))
        return self

    def crash(self, node_id: str, *, at: float) -> "FaultPlan":
        """Fail-stop ``node_id`` at time ``at``."""
        return self.add("crash", node_id, at=at)

    def recover(self, node_id: str, *, at: float) -> "FaultPlan":
        """Restart ``node_id`` (fresh protocol state) at ``at``."""
        return self.add("recover", node_id, at=at)

    def partition(self, *components, at: float) -> "FaultPlan":
        """Split the network into the given components at ``at``."""
        return self.add("partition", *map(frozenset, components), at=at)

    def heal(self, *, at: float) -> "FaultPlan":
        """Remove all partitions (and live isolation) at ``at``."""
        return self.add("heal", at=at)

    def call(self, fn: Callable[[], None], *, at: float) -> "FaultPlan":
        """Run an arbitrary callback at ``at`` (custom faults)."""
        return self.add("call", fn, at=at)

    def drain(self, node_id: str, *, at: float) -> "FaultPlan":
        """Gracefully retire ``node_id``'s replica at ``at``."""
        return self.add("drain", node_id, at=at)

    def join(self, node_id: str, *, at: float) -> "FaultPlan":
        """Admit (or re-admit) a replica on ``node_id`` at ``at``."""
        return self.add("join", node_id, at=at)

    def drop(self, rate: float, *, at: float, src: Optional[str] = None,
             dst: Optional[str] = None) -> "FaultPlan":
        """From ``at`` on, lose matching frames with probability
        ``rate`` (``src``/``dst`` of None match every node)."""
        return self.add("drop", rate, src, dst, at=at)

    def delay(self, delay_s: float, *, at: float, jitter_s: float = 0.0,
              src: Optional[str] = None, dst: Optional[str] = None) -> "FaultPlan":
        """From ``at`` on, hold matching frames ``delay_s`` plus uniform
        jitter in ``[0, jitter_s]``."""
        return self.add("delay", delay_s, jitter_s, src, dst, at=at)

    def duplicate(self, rate: float, *, at: float, src: Optional[str] = None,
                  dst: Optional[str] = None) -> "FaultPlan":
        """From ``at`` on, duplicate matching frames with probability
        ``rate``."""
        return self.add("duplicate", rate, src, dst, at=at)

    def reorder(self, rate: float, *, at: float, window_s: float = 0.01,
                src: Optional[str] = None, dst: Optional[str] = None) -> "FaultPlan":
        """From ``at`` on, hold matching frames an extra ``[0, window_s]``
        with probability ``rate`` so later frames overtake them."""
        return self.add("reorder", rate, window_s, src, dst, at=at)

    def isolate(self, node_id: str, *, at: float) -> "FaultPlan":
        """Cut ``node_id`` off from every peer (both directions) at
        ``at``; healed by :meth:`heal`."""
        return self.add("isolate", node_id, at=at)

    def lie(self, node_id: str, *, bias_us: int, at: float) -> "FaultPlan":
        """From ``at`` on, ``node_id`` adds ``bias_us`` to every CCS
        proposal it transmits — the same lie to every receiver (bias 0
        stops the lying)."""
        return self.add("lie", node_id, bias_us, at=at)

    def equivocate(self, node_id: str, *, spread_us: int,
                   at: float) -> "FaultPlan":
        """From ``at`` on, ``node_id`` tells each receiver a different
        proposal value, seeded per destination with magnitude of order
        ``spread_us`` (0 stops the equivocation)."""
        return self.add("equivocate", node_id, spread_us, at=at)

    def corrupt_state(self, node_id: str, *, at: float) -> "FaultPlan":
        """Scramble ``node_id``'s time-service state (offset, round
        counters, watermarks, fast floor) at ``at`` — the transient
        fault the self-stabilization path must repair."""
        return self.add("corrupt-state", node_id, at=at)

    # -- reproducibility pin ----------------------------------------------

    def schedule(self) -> List[FaultEvent]:
        """The events in injection order (time, then insertion order —
        matching :meth:`arm`, which uses a stable sort)."""
        return sorted(self.events, key=lambda e: e.at_s)

    def schedule_hash(self) -> str:
        """SHA-256 over the canonical schedule.  Two plans with the same
        events at the same times hash identically, whatever order they
        were built in — the reproducibility pin for chaos verdicts."""
        digest = hashlib.sha256()
        for event in self.schedule():
            digest.update(event.canonical().encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()

    # -- execution ----------------------------------------------------------

    def arm(self, bed, *, absolute: bool = False, control=None,
            after: Optional[Callable[[FaultEvent], None]] = None) -> "FaultPlan":
        """Schedule every event on the testbed's kernel.

        Times are relative to the moment of arming by default; with
        ``absolute=True`` they are absolute kernel times.  ``control`` is
        the :class:`~repro.control.plane.ControlPlane` that ``drain`` and
        ``join`` events drive.  ``after(event)`` runs inside the same
        kernel callback as each injection, right after it — how a harness
        tells its oracle what was injected and restarts what a
        ``recover`` brought back, in the tick of the fault itself.

        Misconfigured plans — unknown node names, absolute times already
        in the past, overlapping partition components, events targeting
        nodes that are already crashed at that point of the schedule,
        events needing a chaos transport or a control plane that is not
        there — are rejected here, before anything is scheduled, rather
        than failing mid-experiment inside the kernel.
        """
        if self._armed:
            raise ConfigurationError("fault plan already armed")
        self._validate(bed, absolute, control)
        self._armed = True
        for event in self.schedule():
            delay = event.at_s - bed.sim.now if absolute else event.at_s
            bed.sim.schedule(delay, self._inject, bed, event, control, after)
        return self

    def _validate(self, bed, absolute: bool, control=None) -> None:
        known = set(bed.node_ids)
        crashed: set = set()
        for event in self.schedule():
            if absolute and event.at_s < bed.sim.now:
                raise ConfigurationError(
                    f"fault event {event} lies in the past "
                    f"(kernel time is {bed.sim.now * 1000:.2f} ms)"
                )
            kind = FAULT_KINDS[event.kind]
            if _surface(kind, bed, control) is None:
                raise ConfigurationError(
                    f"fault event {event} needs {_NEEDS[kind.needs]}")
            for index in kind.nodes:
                node = event.target[index]
                if node is not None and node not in known:
                    raise ConfigurationError(
                        f"fault event {event} targets unknown node "
                        f"{node!r}; nodes are {sorted(known)}"
                    )
            if kind.requires is not None and (
                    (event.target[0] in crashed) != (kind.requires == "down")):
                raise ConfigurationError(
                    f"fault event {event} targets {event.target[0]!r}, which "
                    f"is {'already' if kind.requires == 'up' else 'not'} "
                    f"crashed at that point of the plan"
                )
            if kind.leaves == "down":
                crashed.add(event.target[0])
            elif kind.leaves == "up":
                crashed.discard(event.target[0])
            if kind.check is not None:
                kind.check(event, known)

    def _inject(self, bed, event: FaultEvent, control=None, after=None) -> None:
        kind = FAULT_KINDS[event.kind]
        kind.inject(_surface(kind, bed, control), *event.target)
        self.injected.append(event)
        if after is not None:
            after(event)

    @property
    def done(self) -> bool:
        """True once every scheduled fault has been injected."""
        return len(self.injected) == len(self.events)
