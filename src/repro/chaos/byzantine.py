"""Byzantine fault injection: replicas that *lie* instead of crashing.

The rest of the chaos subsystem injects crash/omission faults — frames
are dropped, delayed, duplicated, or the node stops.  This module makes
a chosen replica actively adversarial at the wire boundary:

* **lie** — every CCS proposal the node transmits carries a fixed bias
  added to ``proposed_micros`` (the same wrong value to every receiver);
* **equivocate** — the bias differs per *destination*, derived
  deterministically from the seed and the ``(src, dst)`` pair, so
  different receivers are told different values for the same totally
  ordered message slot;
* **corrupt-state** — :func:`corrupt_time_state` scrambles a replica's
  *local* protocol state in place (clock offset, round counters,
  duplicate-detection watermarks, the fast-path floor), modelling a
  transient memory fault the self-stabilization path must repair.

Perturbation happens in :class:`~repro.chaos.transport.ChaosTransport`'s
send path, before the fault decision procedure, and descends through the
nested payload (``RegularMessage`` → ``Envelope`` → ``CCSMessage``)
returning replaced *copies* — every protocol message is an immutable,
shared tuple, so in-place mutation would corrupt the sender's own buffers.

Everything is seeded: the per-destination equivocation bias is a pure
function of ``(seed, src, dst)``, and the state scrambling draws from
the caller's ``random.Random`` — two runs with the same seed inject
byte-identical lies.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict

from ..core.messages import CCSMessage
from ..replication.envelope import Envelope
from ..totem.messages import RegularMessage


class ByzantineRules:
    """Per-node lie/equivocation rules applied on the send side."""

    def __init__(self, *, seed: int = 0):
        self.seed = seed
        #: src -> fixed bias added to every CCS proposal (us).
        self._lies: Dict[str, int] = {}
        #: src -> equivocation spread (us); per-dst bias derived from it.
        self._equivocations: Dict[str, int] = {}
        #: Injection tally for verdicts and tests.
        self.frames_perturbed = 0

    # -- rule control (driven by an armed FaultPlan) --------------------

    def set_lie(self, node_id: str, bias_us: int) -> None:
        """From now on, ``node_id`` adds ``bias_us`` to every CCS
        proposal it transmits (0 stops the lying)."""
        if bias_us:
            self._lies[node_id] = int(bias_us)
        else:
            self._lies.pop(node_id, None)

    def set_equivocate(self, node_id: str, spread_us: int) -> None:
        """From now on, ``node_id`` tells each receiver a different
        value: destination ``dst`` sees the proposal raised by a
        deterministic amount in ``[spread/2, 3*spread/2)`` derived from
        ``(seed, node_id, dst)`` (0 stops the equivocation)."""
        if spread_us:
            self._equivocations[node_id] = int(spread_us)
        else:
            self._equivocations.pop(node_id, None)

    def clear(self) -> None:
        self._lies.clear()
        self._equivocations.clear()

    # -- the perturbation -----------------------------------------------

    def bias_for(self, src: str, dst: str) -> int:
        """The total bias ``src`` applies when talking to ``dst``."""
        bias = self._lies.get(src, 0)
        spread = self._equivocations.get(src)
        if spread:
            digest = hashlib.sha256(
                f"{self.seed}|{src}|{dst}".encode("utf-8")).digest()
            frac = int.from_bytes(digest[:4], "little") / 2 ** 32
            bias += int(spread * (0.5 + frac))
        return bias

    def perturb(self, src: str, dst: str, payload: Any) -> Any:
        """Return ``payload`` with any nested CCS proposal biased for
        this ``(src, dst)`` leg; the original objects are never touched."""
        bias = self.bias_for(src, dst)
        if not bias:
            return payload
        perturbed = _bias_ccs(payload, bias)
        if perturbed is not payload:
            self.frames_perturbed += 1
        return perturbed


def _bias_ccs(payload: Any, bias_us: int) -> Any:
    """Rebuild ``payload`` with every nested CCSMessage biased; returns
    the original object when there is nothing to perturb."""
    if isinstance(payload, Envelope) and isinstance(payload.body, CCSMessage):
        body = payload.body._replace(
            proposed_micros=payload.body.proposed_micros + bias_us)
        return payload._replace(body=body)
    if isinstance(payload, RegularMessage):
        inner = _bias_ccs(payload.payload, bias_us)
        if inner is not payload.payload:
            return payload._replace(payload=inner)
    return payload


def corrupt_time_state(service, rng) -> Dict[str, int]:
    """Scramble one replica's consistent-time-service state in place.

    Models a transient fault (bit flips, a bad restore) hitting exactly
    the state the self-stabilization path claims to repair: the clock
    offset, the per-thread round counters, the duplicate-detection
    watermarks, and the fast-path floor.

    Returns what was scrambled (for the chaos verdict).  Draws only from
    ``rng``, so a seeded schedule corrupts identically across runs.
    """
    state = getattr(service, "clock_state", None)
    if state is None:
        return {}  # baseline time source; nothing to corrupt
    details: Dict[str, int] = {}
    # An offset wrong by about an hour: every proposal and fast read fed
    # by it is implausible against the certified window.
    offset_bump = rng.randrange(3_600_000_000, 7_200_000_000)
    state.offset_us += offset_bump
    details["offset_bump_us"] = offset_bump
    # A fast floor far above anything a real round produced.
    anchor = state.last_group_us or 0
    floor_bump = rng.randrange(3_600_000_000, 7_200_000_000)
    state.fast_floor_us = anchor + floor_bump
    details["fast_floor_bump_us"] = floor_bump
    # Round counters and watermarks jumped far ahead of live traffic.
    round_bump = rng.randrange(1_000_000, 2_000_000)
    for handler in service._handlers.values():
        handler.my_round_number += round_bump
    for thread_id in list(service._accepted):
        service._accepted[thread_id] += round_bump
    details["round_bump"] = round_bump
    return details
