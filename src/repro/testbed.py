"""High-level assembly: the paper's testbed in a few lines.

:class:`Testbed` wires the whole stack together — cluster, one Totem
processor and group runtime per node, replicated services and clients —
mirroring the experimental setup of Section 4.2 (four PCs on a quiet
100 Mbit/s Ethernet, one Totem instance per node, a client on the ring
leader invoking a three-way actively replicated server).

It is the one bed class.  Its subclasses keep only what their
substrate or topology builds: :class:`repro.net.testbed.LiveTestbed`
runs the identical stack over real UDP sockets and wall clocks, and
:class:`repro.shard.ShardedTestbed` runs one ring per shard on one
simulated LAN.  Every bed builds its hosts through one
:class:`~repro.sim.Cluster`, so workload code written against this API
runs unmodified in either mode.

Example::

    bed = Testbed(seed=42)
    bed.deploy("timesvc", ClockApp, nodes=["n1", "n2", "n3"],
               style="active", time_source="cts")
    client = bed.client("n0")
    bed.start()

    def scenario():
        result, latency_us = yield from client.timed_call("timesvc", "get_time")
        return result

    value = bed.run_process(scenario())
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Union

from .baselines import (
    LocalClockSource,
    NtpDisciplinedSource,
    PrimaryBackupClockSource,
    install_ntp_daemons,
)
from .core import ConsistentTimeService, DriftCompensation
from .errors import ConfigurationError, WaitTimeout
from .obs import Bus
from .replication import (
    ActiveReplica,
    Application,
    GroupRuntime,
    HistoryRecorder,
    PassiveReplica,
    Replica,
    SemiActiveReplica,
    TimeSource,
)
from .rpc import RpcClient
from .sim import Cluster, ClusterConfig, Frame
from .sim.node import Node
from .totem import TotemConfig, TotemProcessor

#: Replication styles by name.
STYLES = {
    "active": ActiveReplica,
    "passive": PassiveReplica,
    "semi-active": SemiActiveReplica,
}

TimeSourceSpec = Union[str, Callable[[Replica], TimeSource]]

#: The :meth:`Testbed.deploy` keywords that are the consistent time
#: service's: named, defaulted and checked on its constructor; the bed
#: only carries them there.
CTS_OPTIONS = ("fast_path", "max_staleness_us", "byzantine")

#: The baseline time sources by name.
BASELINES = {
    "local": LocalClockSource,
    "ntp": NtpDisciplinedSource,
    "primary-backup": PrimaryBackupClockSource,
}


#: A receiver tap (:meth:`Testbed.interpose`): the receiver installed
#: on a node in, the one to install in front of it out.
Tap = Callable[[Callable[[Frame], None]], Callable[[Frame], None]]


class Testbed:
    """A cluster of nodes with Totem and group runtimes on every node.

    Built here on the simulator.  ``obs`` is the telemetry bus the bed
    records into, ``bed.obs`` (its cluster builds one unless handed
    one).  A subclass builds its own
    :class:`Cluster` (on a live kernel and transport, or with one ring
    per shard) and hands it to :meth:`_init_stack`; everything else —
    replica deployment, clients, time-source wiring, receiver taps,
    fault injection, condition waits — is this class's, in every mode.
    """

    __test__ = False  # not a pytest test class, despite the name

    #: Fault-injecting transport decorator
    #: (:class:`~repro.chaos.transport.ChaosTransport`); only a live bed
    #: booted with a chaos seed carries one.
    chaos = None
    #: Seeds the ``corrupt-state`` scrambler (:meth:`corrupt_state`).
    chaos_seed: Optional[int] = None
    #: Set by :meth:`record`: new replicas' time sources get a recorder.
    _recording = False

    def __init__(
        self,
        *,
        num_nodes: int = 4,
        seed: int = 0,
        cluster_config: Optional[ClusterConfig] = None,
        totem_config: Optional[TotemConfig] = None,
        obs: Optional[Bus] = None,
    ):
        config = cluster_config or ClusterConfig(num_nodes=num_nodes)
        self._init_stack(Cluster(config, seed=seed, obs=obs), totem_config)

    def _init_stack(self, cluster: Cluster,
                    totem_config: Optional[TotemConfig],
                    memberships: Optional[Dict[str, List[str]]] = None) -> None:
        """Install the protocol stack on ``cluster``'s nodes: one Totem
        processor and one group runtime per node.

        By default every node shares one static membership (one ring).
        ``memberships`` maps node ids to per-node membership lists for
        partitioned deployments — the sharded testbed gives each shard
        its own ring on a common network substrate.
        """
        self.cluster = cluster
        self.sim = cluster.sim
        #: The bed's telemetry: every layer it builds traces and records
        #: into this tracer and registry (``cluster.obs``).
        self.obs = cluster.obs
        self.totem_config = totem_config or TotemConfig()
        self.processors: Dict[str, TotemProcessor] = {}
        self.runtimes: Dict[str, GroupRuntime] = {}
        static = cluster.node_ids
        self._memberships: Dict[str, List[str]] = {
            node_id: list((memberships or {}).get(node_id, static))
            for node_id in static
        }
        #: node_id -> the taps :meth:`interpose` put in front of it.
        self._taps: Dict[str, List[Tap]] = {}
        for node_id in static:
            self._boot(node_id)
        #: group -> {node_id: Replica}
        self.services: Dict[str, Dict[str, Replica]] = {}
        #: group -> (app_factory, deploy keywords, nodes deployed on):
        #: what ``add_replica`` rebuilds a replica from and ``redeploy``
        #: a restarted node's replicas.
        self._deployed: Dict[str, tuple] = {}
        self.clients: Dict[str, RpcClient] = {}
        self._started = False

    def _boot(self, node_id: str) -> TotemProcessor:
        """One node's protocol stack from scratch — a Totem processor on
        the node, a group runtime on the processor, the node's taps in
        front of the processor — at first boot and at every
        :meth:`recover`."""
        node = self.node(node_id)
        processor = TotemProcessor(
            node,
            self.totem_config,
            static_membership=self._memberships[node_id],
        )
        self.processors[node_id] = processor
        self.runtimes[node_id] = GroupRuntime(processor)
        for tap in self._taps.get(node_id, ()):
            node.set_receiver(tap(node.receiver))
        return processor

    def interpose(self, node_id: str, tap: Tap) -> None:
        """Put ``tap(receiver)`` in front of ``node_id``'s installed
        receiver, now and again on every :meth:`recover` (after the
        rebuilt processor, in the order the taps were interposed)."""
        self._taps.setdefault(node_id, []).append(tap)
        node = self.node(node_id)
        node.set_receiver(tap(node.receiver))

    # -- node access ---------------------------------------------------

    @property
    def node_ids(self) -> List[str]:
        return self.cluster.node_ids

    def node(self, node_id: str) -> Node:
        return self.cluster.nodes[node_id]

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def deploy(self, group: str, app_factory: Callable[[], Application],
               nodes: List[str], **options) -> Dict[str, Replica]:
        """Deploy one replicated service: one replica per listed node.

        ``style`` is one of :data:`STYLES` (default ``"active"``).
        ``time_source`` is ``"cts"`` (consistent time service, the
        default), one of the baseline names (``"local"``,
        ``"primary-backup"``, ``"ntp"``), or a factory ``Replica ->
        TimeSource``; ``drift`` is its drift compensation.  ``coalesce``
        (default on) is the replica's: it overlaps clock reads so they
        share rounds where the style's ``supports_pipelining`` allows
        (``False``: serial execution, one round per operation — the same
        protocol); a baseline's replicas — named, or its class passed as
        the factory — always run serially, whatever ``coalesce`` says (a
        factory of your own is deployed as asked).  The
        :data:`CTS_OPTIONS` configure the consistent time service:
        ``fast_path`` (off) and ``max_staleness_us`` (2 000) the
        drift-bounded read fast path, ``byzantine`` (off) the Byzantine
        guard.  All four are independent, and the three are ignored for
        baselines.  Any other keyword is the replication style's own
        (``checkpoint_interval``); one that nothing takes is a
        ``TypeError`` here.
        """
        if group in self.services:
            raise ConfigurationError(f"group {group!r} already deployed")
        self._add(group, nodes, app_factory, **options)
        self._deployed[group] = (app_factory, options, list(nodes))
        return self.services[group]

    def add_replica(
        self,
        group: str,
        node_id: str,
        app_factory: Optional[Callable[[], Application]] = None,
        **overrides,
    ) -> Replica:
        """Add (or re-add, after a crash) one replica to a running group.

        The replica is built exactly as :meth:`deploy` built the group's
        others — same application, style, time source and options —
        except where ``app_factory`` or a :meth:`deploy` keyword given
        here overrides the deployed value.  It recovers via state
        transfer, including the special CCS round that integrates its
        clock (Section 3.2).
        """
        if group not in self._deployed:
            raise ConfigurationError(f"group {group!r} is not deployed")
        deployed_factory, spec, _nodes = self._deployed[group]
        return self._add(group, [node_id], app_factory or deployed_factory,
                         join_existing=True, **{**spec, **overrides})[node_id]

    def redeploy(self, node_id: str) -> None:
        """The daemon-restart half of a :meth:`recover`: re-add, as
        deployed, every replica :meth:`deploy` placed on ``node_id`` that
        is not serving.  Each recovers its state via state transfer."""
        for group, (_factory, _spec, nodes) in self._deployed.items():
            if node_id in nodes and node_id not in self.services[group]:
                self.add_replica(group, node_id)

    def _add(self, group: str, nodes: List[str], app_factory, *,
             style: str = "active", time_source: TimeSourceSpec = "cts",
             drift: Optional[DriftCompensation] = None,
             **replica_kwargs) -> Dict[str, Replica]:
        """Build one replica per node, register them, and start them if
        the bed already runs."""
        if style not in STYLES:
            raise ConfigurationError(
                f"unknown style {style!r}; choose from {sorted(STYLES)}"
            )
        cts_options = {name: replica_kwargs.pop(name)
                       for name in CTS_OPTIONS if name in replica_kwargs}
        if time_source in BASELINES or time_source in BASELINES.values():
            # A baseline read completes at once: nothing to overlap.
            replica_kwargs["coalesce"] = False
        factory = self._time_source_factory(time_source, drift, **cts_options)
        replicas = {
            node_id: STYLES[style](self.runtimes[node_id], group,
                                   app_factory(), factory, **replica_kwargs)
            for node_id in nodes
        }
        self.services.setdefault(group, {}).update(replicas)
        if self._recording:
            self.record()
        if self._started:
            for replica in replicas.values():
                replica.start()
        return replicas

    def record(self) -> None:
        """Keep experiment records from here on: every deployed time
        source, and each one added or re-deployed later, gets a
        :class:`~repro.replication.HistoryRecorder`, read back as
        ``replica.time_source.recorder``.  Unasked, none is kept."""
        self._recording = True
        for replicas in self.services.values():
            for replica in replicas.values():
                if replica.time_source.recorder is None:
                    replica.time_source.recorder = HistoryRecorder()

    def client(self, node_id: str, group: Optional[str] = None) -> RpcClient:
        """Create an (unreplicated) RPC client on ``node_id``."""
        client = RpcClient(self.runtimes[node_id], group)
        self.clients[client.group] = client
        return client

    @staticmethod
    def _time_source_factory(
        spec: TimeSourceSpec,
        drift: Optional[DriftCompensation],
        **cts_options,
    ) -> Callable[[Replica], TimeSource]:
        """``cts_options`` (the :data:`CTS_OPTIONS`) reach the consistent
        time service verbatim; every other source ignores them."""
        if callable(spec):
            return spec
        if spec == "cts":
            return lambda replica: ConsistentTimeService(
                replica, drift=drift, **cts_options
            )
        if spec in BASELINES:
            return BASELINES[spec]
        raise ConfigurationError(
            f"unknown time source {spec!r}; choose 'cts', 'local', 'ntp', "
            "'primary-backup' or pass a factory"
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def start(self, settle: float = 0.2) -> None:
        """Boot Totem on every node, start all deployed replicas, and run
        until rings and groups settle (``settle`` kernel seconds)."""
        if self._started:
            return
        self._started = True
        for processor in self.processors.values():
            processor.start()
        for replicas in self.services.values():
            for replica in replicas.values():
                replica.start()
        self.run(settle)

    def run(self, duration: float) -> None:
        """Advance the kernel by ``duration`` seconds."""
        self.sim.run(until=self.sim.now + duration)

    def run_process(self, generator, name: str = "scenario", **kwargs):
        """Run a scenario generator to completion and return its value."""
        return self.sim.run_process(generator, name=name, **kwargs)

    def wait_until(
        self,
        predicate: Callable[[], bool],
        *,
        timeout: float = 10.0,
        poll: float = 0.02,
    ) -> float:
        """Run in ``poll``-second steps until ``predicate()`` is true;
        returns the kernel seconds that took.  Raises
        :class:`~repro.errors.WaitTimeout` after ``timeout``.  Real
        time cannot be fast-forwarded, so on a live bed a condition
        wait replaces the simulator's fixed-duration run."""
        start = self.sim.now
        while True:
            if predicate():
                return self.sim.now - start
            if self.sim.now - start > timeout:
                raise WaitTimeout(f"condition not reached within {timeout}s")
            self.run(poll)

    def crash(self, node_id: str) -> None:
        """Fail-stop the node (processes, clock, network all stop)."""
        self.node(node_id).crash()
        for replicas in self.services.values():
            replicas.pop(node_id, None)

    def recover(self, node_id: str) -> None:
        """Restart a crashed node with fresh protocol state.

        Fail-stop semantics: all volatile state is gone, so the Totem
        processor and group runtime are rebuilt from scratch, with the
        node's :meth:`interpose` taps back in front of the processor
        before any frame arrives; the node rejoins the ring via the
        membership protocol.  Re-add replicas with :meth:`redeploy` (or
        :meth:`add_replica`) afterwards — they recover their state via
        state transfer.
        """
        self.node(node_id).recover()
        # The crashed daemon is gone for good, even if the host is back
        # before its timers lapse.  It leaves behind only what Totem
        # keeps on stable storage, the ring sequence number: a restarted
        # ring leader counting from zero would form singleton ring
        # (1, leader) again — the first ring's id — and file that ring's
        # traffic as its own.
        crashed = self.processors[node_id]
        crashed.stop()
        processor = self._boot(node_id)
        processor.membership.highest_ring_seq = (
            crashed.membership.highest_ring_seq)
        if self._started:
            processor.start()

    def replicas(self, group: str) -> Dict[str, Replica]:
        """The live replicas of a group, keyed by node."""
        return self.services[group]

    def corrupt_state(self, node_id: str,
                      *, seed: Optional[int] = None) -> Dict[str, int]:
        """Scramble ``node_id``'s time-service state in every deployed
        group — the ``corrupt-state`` chaos event.  Returns what was
        scrambled per group (empty for baseline sources); draws from a
        ``random.Random`` seeded with ``(seed, node_id)`` — defaulting
        to the bed's chaos seed — so a seeded schedule corrupts
        identically across runs."""
        import random

        from .chaos.byzantine import corrupt_time_state

        if seed is None:
            seed = self.chaos_seed or 0
        rng = random.Random(f"{seed}|corrupt|{node_id}")
        details: Dict[str, Dict[str, int]] = {}
        for group, replicas in self.services.items():
            replica = replicas.get(node_id)
            if replica is None:
                continue
            scrambled = corrupt_time_state(replica.time_source, rng)
            if scrambled:
                details[group] = scrambled
        return details

    def install_ntp(self, **daemon_kwargs):
        """Discipline every node's clock with an NTP-style daemon."""
        return install_ntp_daemons(
            self.cluster.nodes.values(),
            lambda node_id: self.cluster.rngs.stream(f"ntp.{node_id}"),
            **daemon_kwargs,
        )
