"""Baseline: software clock synchronization (NTP-style discipline).

The paper (Section 1) argues that software clock-synchronization
algorithms cannot solve the replica non-determinism problem: however
accurately the clocks agree, replicas still *read* them at different
real times, so the readings differ.  This module provides the
comparator: an :class:`NtpDaemon` per node disciplines the node's clock
toward a reference within a realistic LAN error bound, and
:class:`NtpDisciplinedSource` reads the disciplined clock locally.

The daemon can also serve as the §3.3 "NTP, GPS or some other time
source" used by the reference-steering drift compensation strategy.
"""

from __future__ import annotations

import random
from typing import Callable, List, Optional

from ..sim.clock import US_PER_SEC
from ..sim.node import Node
from .local_clock import LocalClockSource


class NtpDaemon:
    """Periodically steps one node's clock toward a reference time.

    ``reference_us`` defaults to simulated real time (an ideal stratum-1
    server); each poll observes ``reference - local`` corrupted by a
    Gaussian measurement error (network asymmetry, queueing) and applies
    a proportional correction.
    """

    def __init__(
        self,
        node: Node,
        rng: random.Random,
        *,
        reference_us: Optional[Callable[[], int]] = None,
        poll_interval_s: float = 1.0,
        gain: float = 0.5,
        error_std_us: float = 200.0,
    ):
        self.node = node
        self.rng = rng
        self.reference_us = reference_us or (
            lambda: int(node.sim.now * US_PER_SEC)
        )
        self.poll_interval_s = poll_interval_s
        self.gain = gain
        self.error_std_us = error_std_us
        self.polls = 0
        self.corrections_us: List[int] = []
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.node.sim.schedule(self.poll_interval_s, self._poll)

    def stop(self) -> None:
        self._running = False

    def _poll(self) -> None:
        if not self._running or not self.node.alive:
            return
        measured = self.reference_us() - self.node.clock.read_us()
        measured += int(self.rng.gauss(0.0, self.error_std_us))
        correction = int(self.gain * measured)
        self.node.clock.step(correction)
        self.polls += 1
        self.corrections_us.append(correction)
        self.node.sim.schedule(self.poll_interval_s, self._poll)


class NtpDisciplinedSource(LocalClockSource):
    """Reads the local clock — which an :class:`NtpDaemon` disciplines.

    Identical read path to :class:`LocalClockSource`; the difference is
    operational (run a daemon per node).  Kept as its own class so
    experiment reports can name the configuration.
    """

    name = "ntp-disciplined"


def install_ntp_daemons(
    nodes,
    rng_factory: Callable[[str], random.Random],
    **daemon_kwargs,
) -> List[NtpDaemon]:
    """Start one daemon per node; returns them for inspection."""
    daemons = []
    for node in nodes:
        daemon = NtpDaemon(node, rng_factory(node.node_id), **daemon_kwargs)
        daemon.start()
        daemons.append(daemon)
    return daemons
