"""Chaos scenario files: a small declarative DSL over ``FaultPlan``.

A scenario is a JSON mapping with a cluster shape and a timed event
list::

    {"name": "partition-and-crash",
     "nodes": 3,
     "duration": 10.0,
     "clients": 2,
     "events": [
       {"at": 1.0, "drop": 0.05},
       {"at": 2.0, "partition": [["n0", "n1"], ["n2"]]},
       {"at": 4.0, "heal": true},
       {"at": 5.0, "crash": "n0"},
       {"at": 7.0, "recover": "n0"}]}

``nodes`` is a count or an explicit id list, ``duration`` the seconds of
wall time to run, ``clients`` the gateway clients hammering the cluster.
Each event has ``at`` plus exactly one fault kind of
:data:`repro.sim.faults.FAULT_KINDS`, whose argument declarations say
which further keys it takes (``delay``: seconds plus optional
``jitter`` / ``src`` / ``dst``; ``lie``: node id plus ``bias`` in
microseconds; ...) — the reference table is in ``docs/chaos.md``.  A
``partition`` is a list of disjoint node lists or, in a sharded
scenario, ``{"shards": [...]}``.  A top-level ``auth: true`` turns on the
authenticated-Byzantine mode: ring frames carry HMACs and the time
service arms its winner sanity filter and self-stabilization path.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from ..errors import ConfigurationError
from ..shard.cluster import shard_nodes
from ..sim.faults import FAULT_KINDS, FaultPlan

#: The fault kinds an event mapping may name (every kind with declared
#: scenario arguments).
_KIND_KEYS = tuple(kind for kind, spec in FAULT_KINDS.items()
                   if spec.args is not None)


@dataclass
class ChaosScenario:
    """A parsed, validated scenario ready to compile into a plan."""

    name: str
    node_ids: List[str]
    duration_s: float
    clients: int = 2
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Authenticated-Byzantine mode: sign/verify ring frames with HMAC
    #: and enable the CTS winner sanity filter + self-stabilization.
    auth: bool = False
    #: Sharded topology: run this many CCS groups (shards) of
    #: ``shard_size`` servers each instead of one flat ring.  Node ids
    #: become ``s{g}n{r}`` (servers) / ``s{g}c`` (shard client), and
    #: shard-scoped event targets (``partition: {shards: [...]}``)
    #: become available.  None = the classic single-group run.
    shards: Optional[int] = None
    shard_size: int = 3


def load_scenario(path: Union[str, os.PathLike]) -> ChaosScenario:
    """Load and validate a JSON scenario file."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    return scenario_from_dict(data, source=str(path))


def scenario_from_dict(data: Any, *, source: str = "<scenario>") -> ChaosScenario:
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{source}: scenario must be a mapping, got {type(data).__name__}")
    known = {"name", "nodes", "duration", "clients", "events", "auth",
             "shards", "shard_size"}
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(
            f"{source}: unknown scenario key(s) {sorted(unknown)}; "
            f"expected {sorted(known)}")

    shards = data.get("shards")
    shard_size = data.get("shard_size", 3)
    if shards is not None and (not isinstance(shards, int) or shards < 1):
        raise ConfigurationError(f"{source}: shards must be a positive int")
    if not isinstance(shard_size, int) or shard_size < 1:
        raise ConfigurationError(f"{source}: shard_size must be a positive int")

    if shards is not None:
        if "nodes" in data:
            raise ConfigurationError(
                f"{source}: 'nodes' and 'shards' are mutually exclusive — "
                f"a sharded topology derives its node ids")
        node_ids = []
        for shard in range(shards):
            node_ids.extend(shard_nodes(shard, shard_size))
    else:
        nodes = data.get("nodes", 3)
        if isinstance(nodes, int):
            if nodes < 1:
                raise ConfigurationError(f"{source}: nodes must be >= 1")
            node_ids = [f"n{i}" for i in range(nodes)]
        elif (isinstance(nodes, list) and nodes
              and all(isinstance(n, str) for n in nodes)
              and len(set(nodes)) == len(nodes)):
            node_ids = list(nodes)
        else:
            raise ConfigurationError(
                f"{source}: nodes must be an int or a non-empty list of "
                f"distinct node ids")

    duration = data.get("duration", 10.0)
    if not isinstance(duration, (int, float)) or duration <= 0:
        raise ConfigurationError(f"{source}: duration must be a positive number")

    clients = data.get("clients", 2)
    if not isinstance(clients, int) or clients < 1:
        raise ConfigurationError(f"{source}: clients must be a positive int")

    events = data.get("events", [])
    if not isinstance(events, list):
        raise ConfigurationError(f"{source}: events must be a list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ConfigurationError(
                f"{source}: event #{i} must be a mapping, got "
                f"{type(event).__name__}")
        if "at" not in event:
            raise ConfigurationError(f"{source}: event #{i} is missing 'at'")
        kinds = [k for k in _KIND_KEYS if k in event]
        if len(kinds) != 1:
            raise ConfigurationError(
                f"{source}: event #{i} must have exactly one of {_KIND_KEYS}, "
                f"got {kinds or sorted(set(event) - {'at'})}")

    return ChaosScenario(
        name=str(data.get("name", "chaos")),
        node_ids=node_ids,
        duration_s=float(duration),
        clients=clients,
        events=events,
        auth=bool(data.get("auth", False)),
        shards=shards,
        shard_size=shard_size,
    )


def _components(scenario: ChaosScenario, value: Any) -> List[set]:
    """The components a ``partition`` value names: node lists as they
    stand, or — ``{"shards": [...]}`` — each listed shard as its own
    component (servers + shard client) with everyone else connected in
    a final one.  Pure expansion from scenario fields, so the schedule
    hash stays canonical."""
    if isinstance(value, dict) and "shards" in value:
        if scenario.shards is None:
            raise ConfigurationError(
                "partition by shards requires a sharded scenario "
                "(top-level 'shards')")
        listed = value["shards"]
        if (not isinstance(listed, list) or not listed
                or not all(isinstance(s, int) for s in listed)):
            raise ConfigurationError(
                "partition shards must be a non-empty list of shard "
                "indices, e.g. {\"shards\": [0, 2]}")
        expanded, covered = [], set()
        for shard in listed:
            if not 0 <= shard < scenario.shards:
                raise ConfigurationError(
                    f"shard {shard} out of range "
                    f"(scenario has {scenario.shards})")
            nodes = shard_nodes(shard, scenario.shard_size)
            expanded.append(set(nodes))
            covered.update(nodes)
        rest = [n for n in scenario.node_ids if n not in covered]
        if rest:
            expanded.append(set(rest))
        return expanded
    if not isinstance(value, list) or not all(
            isinstance(c, list) for c in value):
        raise ConfigurationError(
            "partition must be a list of node lists, e.g. "
            "[[\"n0\", \"n1\"], [\"n2\"]], or {\"shards\": [...]} in a "
            "sharded scenario")
    return [set(map(str, c)) for c in value]


def compile_plan(scenario: ChaosScenario) -> FaultPlan:
    """Compile the scenario's event list into an (unarmed) fault plan.

    Compilation is pure — no randomness, no clock reads — so the same
    scenario always produces the same plan and the same
    :meth:`~repro.sim.faults.FaultPlan.schedule_hash`.
    """
    plan = FaultPlan()
    for i, event in enumerate(scenario.events):
        try:
            at = float(event["at"])
            kind = next((k for k in _KIND_KEYS if k in event), None)
            if kind is None:
                raise ConfigurationError(f"no fault kind among {sorted(event)}")
            if kind == "partition":
                plan.partition(*_components(scenario, event[kind]), at=at)
            else:  # FaultPlan.add converts and range-checks each item
                plan.add(kind, *[event.get(arg.key, arg.default)
                                 for arg in FAULT_KINDS[kind].args], at=at)
        except (ConfigurationError, TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"{scenario.name}: event #{i}: {exc}") from exc
    return plan
