"""Fault-injecting decorator over the transport contract.

:class:`ChaosTransport` wraps any :class:`repro.net.transport.Transport`
— the live :class:`~repro.net.udp.UdpTransport` is the intended target,
the simulated LAN works too — and impairs traffic *on the send side*:
every unicast and every per-peer leg of a multicast consults the
directional ``(src, dst)`` rule set and is then dropped, delayed,
jittered, duplicated, reordered, or blocked by a partition before the
inner transport ever sees it.

Determinism: every directed pair draws from its own
:class:`random.Random` stream seeded from ``(seed, src, dst)`` as a
string (string seeding is stable across processes and platforms, unlike
``hash()``), so two runs with the same seed and the same per-pair
traffic order make identical drop/delay/duplicate decisions.  The fault
*schedule* (when rules change) comes from the armed
:class:`~repro.sim.faults.FaultPlan` and is byte-identical by
construction.

Delays are implemented by scheduling the real send on the kernel
(:class:`~repro.net.kernel.LiveKernel` or the simulator — both expose
``schedule``), so a delayed frame whose sender has crashed in the
meantime is silently lost, exactly like a frame on a real wire.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from .. import obs
from ..errors import NetworkError
from ..obs import Bus
from ..net.transport import Transport, TransportPort
from .byzantine import ByzantineRules

#: ChaosTransport tally (keyed by sending node) -> the family read from it.
COUNTERS = obs.read_counters({
    "dropped": ("chaos_frames_dropped_total", "frames lost to injected loss", "node"),
    "delayed": ("chaos_frames_delayed_total",
                "frames held back by injected delay", "node"),
    "duplicated": ("chaos_frames_duplicated_total", "extra copies injected", "node"),
    "blocked": ("chaos_frames_blocked_total",
                "frames blocked by partition/isolation", "node"),
})


@dataclass
class PairRules:
    """Impairment knobs for one directed pair (``None`` = inherit)."""

    drop_rate: Optional[float] = None
    delay_s: Optional[float] = None
    jitter_s: Optional[float] = None
    duplicate_rate: Optional[float] = None
    reorder_rate: Optional[float] = None
    reorder_window_s: Optional[float] = None


#: Wildcard key component: "applies to every node".
ANY = None


class ChaosPort(TransportPort):
    """One node's port with the chaos rules interposed on every send."""

    def __init__(self, transport: "ChaosTransport", inner: TransportPort):
        self.transport = transport
        self.inner = inner
        self.node_id = inner.node_id

    # -- delegated state ------------------------------------------------

    @property
    def up(self) -> bool:  # type: ignore[override]
        return self.inner.up

    @up.setter
    def up(self, value: bool) -> None:
        self.inner.up = value

    @property
    def frames_sent(self) -> int:  # type: ignore[override]
        return self.inner.frames_sent

    @property
    def frames_received(self) -> int:  # type: ignore[override]
        return self.inner.frames_received

    @property
    def bytes_sent(self) -> int:  # type: ignore[override]
        return self.inner.bytes_sent

    @property
    def address(self):
        """Bound socket address (live backend only)."""
        return self.inner.address

    def sendto(self, addr, payload) -> None:
        """Direct addressed send (gateway replies).  Client traffic is
        impaired on the request path and by the group's own stalls; the
        reply leg stays clean so the caller's dedupe/retry machinery is
        exercised by *protocol* faults, not by a lying harness."""
        self.inner.sendto(addr, payload)

    # -- impaired sends -------------------------------------------------

    def unicast(self, dst: str, payload: Any, size_bytes: int = 128) -> None:
        if not self.inner.up:
            raise NetworkError(f"interface {self.node_id!r} is down")
        self.transport._send(self.inner, self.node_id, dst, payload, size_bytes)

    def multicast(self, payload: Any, size_bytes: int = 128) -> None:
        """Fan out as unicasts to every *other* peer, each leg impaired
        independently (matching how the UDP backend emulates multicast)."""
        if not self.inner.up:
            raise NetworkError(f"interface {self.node_id!r} is down")
        for dst in self.transport.peer_ids():
            if dst != self.node_id:
                self.transport._send(self.inner, self.node_id, dst, payload,
                                     size_bytes)


class ChaosTransport(Transport):
    """A transport decorator injecting seeded faults per directed pair.

    Rules resolve most-specific-first: ``(src, dst)`` overrides
    ``(src, ANY)`` overrides ``(ANY, dst)`` overrides ``(ANY, ANY)``.
    Partitions and isolation are topology state, kept separately and
    checked before any probabilistic rule.  A unicast to oneself is never
    impaired — a singleton ring's token goes to its own successor, and a
    real host's loopback does not cross the faulty wire.  A multicast
    has no self leg at all.
    """

    def __init__(self, inner: Transport, kernel, *, seed: int = 0,
                 obs: Optional[Bus] = None):
        self.inner = inner
        self.kernel = kernel
        self.seed = seed
        self._rules: Dict[Tuple[Optional[str], Optional[str]], PairRules] = {}
        self._component: Dict[str, int] = {}
        self._isolated: Set[str] = set()
        self._rngs: Dict[Tuple[str, str], random.Random] = {}
        self._attached: List[str] = []
        #: Byzantine lie/equivocation rules, applied to every outgoing
        #: leg *before* the crash/omission decision procedure.
        self.byzantine = ByzantineRules(seed=seed)
        # Injection tallies per sending node; ``frames_dropped`` and its
        # siblings total them for verdicts and tests.
        self.dropped: Dict[str, int] = Counter()
        self.delayed: Dict[str, int] = Counter()
        self.duplicated: Dict[str, int] = Counter()
        self.blocked: Dict[str, int] = Counter()
        self.metrics = (obs or Bus()).metrics
        self.metrics.watch(self, COUNTERS)

    # -- topology (Transport contract) ----------------------------------

    def attach(self, node_id: str, deliver: Callable[[Any], None]) -> ChaosPort:
        port = ChaosPort(self, self.inner.attach(node_id, deliver))
        self._attached.append(node_id)
        return port

    def detach(self, node_id: str) -> None:
        self.inner.detach(node_id)
        if node_id in self._attached:
            self._attached.remove(node_id)

    def close(self) -> None:
        self.inner.close()

    def peer_ids(self) -> List[str]:
        """Every reachable destination, self included.

        The UDP backend keeps an address book (``peers``); the simulated
        LAN and test doubles fall back to the attach registry.
        """
        peers = getattr(self.inner, "peers", None)
        if peers:
            return list(peers)
        return list(self._attached)

    # -- fault control (driven by an armed FaultPlan) -------------------

    def set_drop(self, rate: float, *, src: Optional[str] = None,
                 dst: Optional[str] = None) -> None:
        """Lose each matching frame independently with probability
        ``rate`` (0 disables)."""
        self._rule(src, dst).drop_rate = rate

    def set_delay(self, delay_s: float, *, jitter_s: float = 0.0,
                  src: Optional[str] = None, dst: Optional[str] = None) -> None:
        """Hold each matching frame for ``delay_s`` plus uniform jitter
        in ``[0, jitter_s]`` (jitter > one frame gap reorders)."""
        rules = self._rule(src, dst)
        rules.delay_s = delay_s
        rules.jitter_s = jitter_s

    def set_duplicate(self, rate: float, *, src: Optional[str] = None,
                      dst: Optional[str] = None) -> None:
        """Send an extra copy of each matching frame with probability
        ``rate``."""
        self._rule(src, dst).duplicate_rate = rate

    def set_reorder(self, rate: float, *, window_s: float = 0.01,
                    src: Optional[str] = None, dst: Optional[str] = None) -> None:
        """With probability ``rate``, hold a frame an extra uniform
        ``[0, window_s]`` so later frames overtake it."""
        rules = self._rule(src, dst)
        rules.reorder_rate = rate
        rules.reorder_window_s = window_s

    def partition(self, *components) -> None:
        """Split the network; unlisted nodes form component 0 (same
        semantics as the simulated LAN)."""
        self._component = {}
        for index, group in enumerate(components, start=1):
            for node_id in group:
                self._component[node_id] = index

    def isolate(self, node_id: str) -> None:
        """Cut one node off from every peer in both directions (its own
        loopback survives, as on a real host)."""
        self._isolated.add(node_id)

    def heal(self) -> None:
        """Remove all partitions and isolation (impairment rules stay)."""
        self._component = {}
        self._isolated = set()

    def clear(self) -> None:
        """Reset every impairment, partition and lie — the quiet wire."""
        self.heal()
        self._rules = {}
        self.byzantine.clear()

    # -- Byzantine rules (delegation sugar for FaultPlan._inject) -------

    def set_lie(self, node_id: str, bias_us: int) -> None:
        self.byzantine.set_lie(node_id, bias_us)

    def set_equivocate(self, node_id: str, spread_us: int) -> None:
        self.byzantine.set_equivocate(node_id, spread_us)

    @property
    def frames_perturbed(self) -> int:
        return self.byzantine.frames_perturbed

    @property
    def frames_dropped(self) -> int:
        return sum(self.dropped.values())

    @property
    def frames_delayed(self) -> int:
        return sum(self.delayed.values())

    @property
    def frames_duplicated(self) -> int:
        return sum(self.duplicated.values())

    @property
    def frames_blocked(self) -> int:
        return sum(self.blocked.values())

    def reachable(self, src: str, dst: str) -> bool:
        if src == dst:
            return True
        if src in self._isolated or dst in self._isolated:
            return False
        return self._component.get(src, 0) == self._component.get(dst, 0)

    # -- the decision procedure -----------------------------------------

    def _rule(self, src: Optional[str], dst: Optional[str]) -> PairRules:
        key = (src, dst)
        rules = self._rules.get(key)
        if rules is None:
            rules = self._rules[key] = PairRules()
        return rules

    def _effective(self, src: str, dst: str, field: str, default: float) -> float:
        for key in ((src, dst), (src, ANY), (ANY, dst), (ANY, ANY)):
            rules = self._rules.get(key)
            if rules is not None:
                value = getattr(rules, field)
                if value is not None:
                    return value
        return default

    def _rng(self, src: str, dst: str) -> random.Random:
        key = (src, dst)
        rng = self._rngs.get(key)
        if rng is None:
            rng = self._rngs[key] = random.Random(f"{self.seed}|{src}->{dst}")
        return rng

    def decide(self, src: str, dst: str) -> Optional[List[float]]:
        """One frame's fate on the directed pair: ``None`` when blocked
        or dropped, else the delay of each copy to deliver (usually one;
        two when duplicated).  Self-delivery is always ``[0.0]``."""
        if src == dst:
            return [0.0]
        if not self.reachable(src, dst):
            self.blocked[src] += 1
            return None
        rng = self._rng(src, dst)
        if rng.random() < self._effective(src, dst, "drop_rate", 0.0):
            self.dropped[src] += 1
            return None
        delay = self._effective(src, dst, "delay_s", 0.0)
        jitter = self._effective(src, dst, "jitter_s", 0.0)
        if jitter > 0.0:
            delay += rng.uniform(0.0, jitter)
        if rng.random() < self._effective(src, dst, "reorder_rate", 0.0):
            delay += rng.uniform(
                0.0, self._effective(src, dst, "reorder_window_s", 0.01))
        delays = [delay]
        if rng.random() < self._effective(src, dst, "duplicate_rate", 0.0):
            self.duplicated[src] += 1
            delays.append(delay + rng.uniform(0.0, max(jitter, 0.001)))
        if delay > 0.0:
            self.delayed[src] += 1
        return delays

    def _send(self, inner_port: TransportPort, src: str, dst: str,
              payload: Any, size_bytes: int) -> None:
        # Byzantine perturbation applies before — and regardless of —
        # the crash/omission decision.
        payload = self.byzantine.perturb(src, dst, payload)
        delays = self.decide(src, dst)
        if delays is None:
            return
        for delay in delays:
            if delay <= 0.0:
                self._deliver(inner_port, dst, payload, size_bytes)
            else:
                self.kernel.schedule(
                    delay, self._deliver, inner_port, dst, payload, size_bytes)

    @staticmethod
    def _deliver(inner_port: TransportPort, dst: str, payload: Any,
                 size_bytes: int) -> None:
        if not inner_port.up:
            return  # sender crashed while the frame was "in flight"
        try:
            inner_port.unicast(dst, payload, size_bytes)
        except NetworkError:
            pass  # raced a crash between the check and the send
