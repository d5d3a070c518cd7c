"""The testbed API over real sockets: in-process live deployment.

:class:`LiveTestbed` is :class:`repro.testbed.Testbed` with the
substrate swapped out: its :class:`~repro.sim.Cluster` runs on a
:class:`~repro.net.kernel.LiveKernel` instead of the simulator and a
:class:`~repro.net.udp.UdpTransport` on 127.0.0.1 instead of the
modelled LAN, so the same seeded host clocks move with the wall.  All
nodes run in one process on one event loop — the multi-process
deployment is :mod:`repro.net.daemon` — which makes it the bridge mode:
real time, real sockets, but still a single test-friendly object, so
workloads and the obs subsystem run unmodified against either testbed.

Nodes bind ephemeral ports (bind-all-then-start ordering makes the
shared address book complete before any traffic flows), so live tests
never collide on fixed ports.

Because real time cannot be paused, scenario code should wait on
conditions, not durations: :meth:`~repro.testbed.Testbed.wait_until`
polls a predicate while driving the loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..control.admission import AdmissionConfig, AdmissionController
from ..obs import Bus
from ..replication.envelope import Envelope
from ..sim import Cluster, ClusterConfig
from ..testbed import Testbed
from ..totem import TotemConfig
from .daemon import ClientGateway
from .kernel import LiveKernel
from .timing import live_totem_config
from .udp import Address, LiveFrame, UdpTransport


class LiveTestbed(Testbed):
    """A live cluster on localhost UDP, one event loop, real time.

    ``peers`` is the address book of a ring this bed hosts only part
    of — ``repro serve`` is a one-node bed given the whole ring's: the
    hosted nodes bind their own entries, and the ring's static
    membership is everyone listed, hosted here or not.
    """

    def __init__(
        self,
        *,
        num_nodes: int = 3,
        seed: int = 0,
        node_ids: Optional[List[str]] = None,
        totem_config: Optional[TotemConfig] = None,
        chaos_seed: Optional[int] = None,
        auth_secret: Optional[str] = None,
        peers: Optional[Dict[str, Address]] = None,
        obs: Optional[Bus] = None,
    ):
        self.kernel = LiveKernel()
        # The transport records into the bus the cluster is built on.
        bus = obs if obs is not None else Bus()
        #: Shared wire authenticator when the cluster runs authenticated.
        #: One instance serves every in-process node: send nonces are
        #: keyed by sender and receive watermarks by (receiver, sender),
        #: so the shared keyring never aliases two nodes' counters.
        self.auth = None
        if auth_secret is not None:
            from .auth import WireAuthenticator

            self.auth = WireAuthenticator.from_secret(auth_secret)
        self.transport = UdpTransport(self.kernel.loop, peers=peers,
                                      auth=self.auth, obs=bus)
        self.chaos_seed = chaos_seed
        if chaos_seed is not None:
            # Imported lazily: repro.chaos imports this module's runner
            # dependencies, so a top-level import would cycle.
            from ..chaos.transport import ChaosTransport

            self.chaos = ChaosTransport(self.transport, self.kernel,
                                        seed=chaos_seed, obs=bus)
        try:
            cluster = Cluster(ClusterConfig(num_nodes=num_nodes), seed=seed,
                              sim=self.kernel,
                              transport=self.chaos or self.transport,
                              node_ids=node_ids, obs=bus)
            self._init_stack(
                cluster, totem_config or live_totem_config(),
                {node_id: sorted(peers) for node_id in cluster.nodes}
                if peers else None)
        except BaseException:
            self.shutdown()  # a bed that never was holds no socket
            raise
        #: Every gateway :meth:`install_gateway` built, oldest first (a
        #: recovered node's old one stays, so its tallies survive).
        self.gateways: List[ClientGateway] = []

    # -- client gateways ------------------------------------------------

    def install_gateway(
        self, node_id: str,
        admission_config: Optional[AdmissionConfig] = None,
    ) -> ClientGateway:
        """Put a :class:`ClientGateway` in front of ``node_id``'s
        installed receiver (the Totem processor), admission-controlled
        if ``admission_config`` is given (queue ages and service times
        in the bed's kernel time).  Bare envelopes are client traffic
        (ring peers always wrap envelopes in Totem regular messages);
        everything else is ring traffic and goes on to the receiver that
        was there.  A :meth:`recover` of the node puts a fresh gateway
        on the rebuilt stack (daemon restart semantics)."""
        def tap(ring_receiver):
            admission = None
            if admission_config is not None:
                admission = AdmissionController(
                    admission_config, node_id=node_id,
                    clock=lambda: self.kernel.now, obs=self.obs)
            gateway = ClientGateway(self.runtimes[node_id],
                                    self.node(node_id).iface,
                                    node_id=node_id, admission=admission)
            self.gateways.append(gateway)

            def dispatch(frame: LiveFrame) -> None:
                if isinstance(frame.payload, Envelope):
                    gateway.handle(frame)
                else:
                    ring_receiver(frame)
            return dispatch

        self.interpose(node_id, tap)
        return self.gateways[-1]

    # -- execution ------------------------------------------------------

    def start(self, settle: float = 1.0) -> None:
        """Boot the stack; live rings need more settle time than the sim
        (the live timing profile trades detection latency for stability)."""
        super().start(settle)

    def run_process(self, generator, name: str = "scenario", **kwargs):
        """As the base, but with a default real-time timeout: a scenario
        that would never finish must not hang the process."""
        kwargs.setdefault("timeout", 30.0)
        return super().run_process(generator, name, **kwargs)

    # -- lifecycle ------------------------------------------------------

    def shutdown(self) -> None:
        """Close all sockets and the event loop (idempotent)."""
        self.transport.close()
        self.kernel.close()

    def __enter__(self) -> "LiveTestbed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
