"""Testbed construction: a cluster of nodes on one LAN.

:class:`Cluster` assembles the whole substrate — kernel, RNG registry,
network and nodes — from a :class:`ClusterConfig`, mirroring the paper's
testbed of four PCs on a dedicated 100 Mbit/s Ethernet.  Per-node clock
epochs and drift rates are drawn deterministically from named RNG
streams, so a cluster is fully specified by ``(config, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ConfigurationError
from ..net.transport import Transport
from ..obs import Bus
from .clock import US_PER_SEC
from .kernel import Simulator
from .network import LatencyModel, Network
from .node import Node
from .rng import RngRegistry


@dataclass
class ClusterConfig:
    """Parameters for a simulated testbed.

    Defaults are calibrated to the paper's environment: four 1 GHz PCs on
    a quiet 100 Mbit/s Ethernet, unsynchronized clocks with tens-of-ppm
    drift, microsecond `gettimeofday()` granularity.
    """

    num_nodes: int = 4
    #: Spread of initial clock epochs (seconds).  The paper's clocks are
    #: unsynchronized; minutes of disagreement are typical.
    clock_epoch_spread_s: float = 10.0
    #: Max |drift| per node in ppm, drawn uniformly in [-max, +max].
    clock_drift_ppm_max: float = 50.0
    clock_granularity_us: int = 1
    #: CPU speed factors: 1.0 == the paper's 1 GHz Pentium III.
    cpu_factor: float = 1.0
    cpu_jitter: float = 0.05
    #: Per-node overrides of ``cpu_factor`` (heterogeneous testbeds:
    #: the paper's replicas were clearly not equally fast — one of them
    #: won 9,977 of 10,000 synchronization rounds).
    cpu_factor_overrides: Dict[str, float] = field(default_factory=dict)
    latency: LatencyModel = field(default_factory=LatencyModel)
    loss_rate: float = 0.0

    def node_ids(self) -> List[str]:
        return [f"n{i}" for i in range(self.num_nodes)]


class Cluster:
    """A ready-to-run testbed: kernel + network + nodes.  A live bed
    passes its kernel as ``sim``, its UDP or chaos transport as
    ``transport`` (kept as ``network``) and its ``node_ids``.

    ``obs`` is the bed's telemetry :class:`~repro.obs.Bus`, built here
    unless one is handed in (one bus shared by the beds a command runs
    one after another, or the one a live bed's transport was built on);
    its registry stamps samples in this cluster's kernel time.  The
    network and every node are built on it."""

    def __init__(self, config: Optional[ClusterConfig] = None, *,
                 seed: int = 0, sim: Optional[Simulator] = None,
                 transport: Optional[Transport] = None,
                 node_ids: Optional[List[str]] = None,
                 obs: Optional[Bus] = None):
        self.config = config or ClusterConfig()
        ids = list(node_ids if node_ids is not None
                   else self.config.node_ids())
        if not ids:
            raise ConfigurationError("cluster needs at least one node")
        self.seed = seed
        self.sim = sim if sim is not None else Simulator()
        self.obs = obs if obs is not None else Bus()
        kernel = self.sim
        self.obs.metrics.clock = lambda: kernel.now
        self.rngs = RngRegistry(seed)
        self.network = transport if transport is not None else Network(
            self.sim,
            self.rngs.stream("network"),
            latency=self.config.latency,
            loss_rate=self.config.loss_rate,
            obs=self.obs,
        )
        self.nodes: Dict[str, Node] = {}
        clock_rng = self.rngs.stream("clock-setup")
        for node_id in ids:
            epoch_us = int(
                clock_rng.uniform(0, self.config.clock_epoch_spread_s) * US_PER_SEC
            )
            drift = clock_rng.uniform(
                -self.config.clock_drift_ppm_max, self.config.clock_drift_ppm_max
            )
            self.nodes[node_id] = Node(
                self.sim,
                node_id,
                self.network,
                self.rngs.stream(f"cpu.{node_id}"),
                clock_epoch_us=epoch_us,
                clock_drift_ppm=drift,
                clock_granularity_us=self.config.clock_granularity_us,
                cpu_factor=self.config.cpu_factor_overrides.get(
                    node_id, self.config.cpu_factor
                ),
                cpu_jitter=self.config.cpu_jitter,
                obs=self.obs,
            )

    # -- convenience -----------------------------------------------------

    @property
    def node_ids(self) -> List[str]:
        """Node ids in ring order (creation order)."""
        return list(self.nodes)

    def node(self, node_id: str) -> Node:
        """Look up one node by id."""
        return self.nodes[node_id]

    def run(self, duration: Optional[float] = None) -> float:
        """Advance the simulation by ``duration`` seconds (relative, like
        :meth:`repro.testbed.Testbed.run`); run to quiescence if omitted."""
        until = None if duration is None else self.sim.now + duration
        return self.sim.run(until=until)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Cluster seed={self.seed} nodes={self.node_ids}>"
