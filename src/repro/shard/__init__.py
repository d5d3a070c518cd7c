"""repro.shard — sharded time domains (ROADMAP item 1).

One CCS group gives consistent time *within* a group (PAPER.md §3);
this package runs **many groups**, each owning a shard of the client
population, and bounds the skew *between* them:

* :mod:`repro.shard.ring` — deterministic client→shard placement: a
  consistent-hash ring with virtual nodes (minimal reassignment on
  topology change);
* :mod:`repro.shard.summary` — the signed clock summary shards exchange;
* :mod:`repro.shard.overlay` — the gradient sync overlay: each shard's
  primary periodically sends its summary to its ring neighbors, and the
  receiving group steers a bounded proportion of the positive delta
  into its next proposal (:class:`repro.core.drift.GradientSteering`),
  yielding the per-hop skew envelope documented in docs/sharding.md;
* :mod:`repro.shard.cluster` — :class:`ShardedTestbed`: N independent
  Totem rings (per-shard multicast domains) on one simulated network,
  and :func:`sharded_fleet`, which assembles bed + overlay + router;
* :mod:`repro.shard.router` — :class:`ShardRouter`: routes sessions to
  the owning shard and carries the session floor across migrations so
  reads stay monotone shard-to-shard;
* :mod:`repro.shard.chaos` — the sharded chaos runner behind
  ``python -m repro chaos`` for scenarios with a ``shards:`` key.

:mod:`ring` and :mod:`summary` are leaf modules and import eagerly; the
rest load lazily (PEP 562) because ``repro.net.wire`` imports the
summary codec from here and an eager import of the stack would close a
cycle back into ``repro.net``.
"""

from __future__ import annotations

from .ring import HashRing
from .summary import ShardSummary

_LAZY = {
    "GradientOverlay": ("repro.shard.overlay", "GradientOverlay"),
    "OverlayConfig": ("repro.shard.overlay", "OverlayConfig"),
    "SkewTracker": ("repro.shard.overlay", "SkewTracker"),
    "ShardedTestbed": ("repro.shard.cluster", "ShardedTestbed"),
    "ShardRouter": ("repro.shard.router", "ShardRouter"),
    "ShardSession": ("repro.shard.router", "ShardSession"),
    "run_shard_chaos": ("repro.shard.chaos", "run_shard_chaos"),
    "sharded_fleet": ("repro.shard.cluster", "sharded_fleet"),
}

__all__ = [
    "HashRing",
    "ShardSummary",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
