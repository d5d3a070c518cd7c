"""Beds the benchmark measures: the servant, the builders, set-up.

Set-up runs from bed construction to the point where every logical
client has been served one correct probe op, so the loaded window starts
with rings formed, client groups joined and reply routes learned.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.control.admission import AdmissionConfig, AdmissionController
from repro.net.daemon import ClientGateway
from repro.net.testbed import LiveTestbed
from repro.net.timing import live_totem_config
from repro.replication import Application
from repro.replication.envelope import Envelope
from repro.sim import ClusterConfig
from repro.testbed import Testbed
from repro.totem import TotemConfig

from .spec import GROUP, Workload

SIM_CLIENT_NODE = "n0"
SIM_SERVER_NODES = ["n1", "n2", "n3"]
LIVE_NODES = ["n0", "n1", "n2"]
#: Simulated CPU work per invocation on the simulated beds (the live
#: beds pay real CPU instead).
SIM_WORK_S = 20e-6
AUTH_SECRET = "bench-secret"


class ClockApp(Application):
    """The benchmark's clock-reading servant: one group-clock read per
    invocation, returned in microseconds."""

    def __init__(self, work_s: float = 0.0):
        self.work_s = work_s
        self.calls = 0
        #: Kernel time of the first invocation (``recovery_us`` reads it
        #: on the replica re-added after the crash).
        self.first_call_at: Optional[float] = None

    def gettimeofday(self, ctx, after_us=None):
        self.calls += 1
        if self.first_call_at is None:
            self.first_call_at = ctx.sim.now
        if self.work_s:
            yield ctx.compute(self.work_s)
        value = yield ctx.gettimeofday(after_us=after_us)
        return value.micros


class Bed:
    """A built bed plus the handles the load generators and the tracer
    need, so neither reaches into the testbed for them."""

    def __init__(self, workload: Workload, testbed):
        self.workload = workload
        self.testbed = testbed
        self.sim = testbed.sim
        #: node id -> servant of the replica currently on that node.
        self.apps: Dict[str, ClockApp] = {}
        self.gateways: List[ClientGateway] = []
        #: Simulated beds: the in-process RPC client on n0.
        self.rpc = None
        self.setup_s = 0.0

    @property
    def server_nodes(self) -> List[str]:
        return SIM_SERVER_NODES if self.workload.is_sim else LIVE_NODES

    def deploy_args(self) -> dict:
        return dict(style="active", time_source="cts", coalesce=True,
                    fast_path=self.workload.fast_path)

    def app_factory(self, node_id: str) -> Callable[[], ClockApp]:
        work_s = SIM_WORK_S if self.workload.is_sim else 0.0

        def make() -> ClockApp:
            app = self.apps[node_id] = ClockApp(work_s)
            return app

        return make

    def readd_replica(self, node_id: str) -> None:
        """Recover a crashed node's replica by state transfer."""
        self.testbed.add_replica(GROUP, node_id, self.app_factory(node_id),
                                 **self.deploy_args())

    def close(self) -> None:
        if not self.workload.is_sim:
            self.testbed.shutdown()


def _deploy(bed: Bed) -> None:
    # One replica per node, each with its own servant instance.
    nodes = iter(bed.server_nodes)
    bed.testbed.deploy(
        GROUP, lambda: bed.app_factory(next(nodes))(), bed.server_nodes,
        **bed.deploy_args())


def build_sim_bed(workload: Workload, seed: int, *,
                  record_token_times: bool = False) -> Bed:
    testbed = Testbed(
        seed=seed,
        cluster_config=ClusterConfig(num_nodes=4,
                                     loss_rate=workload.loss_rate),
        totem_config=TotemConfig(record_token_times=record_token_times))
    bed = Bed(workload, testbed)
    _deploy(bed)
    bed.rpc = testbed.client(SIM_CLIENT_NODE)
    testbed.start()
    return bed


def current_receiver(node):
    """The node's installed frame receiver.  The benchmark's one private
    touchpoint: ``Node`` has ``set_receiver`` but no getter, and both the
    gateway interposition and the tracer must chain to what is there
    (``NodeDaemon`` reads the same attribute for the same reason)."""
    return node._receiver


class GatewayTap:
    """A node's receiver once a gateway is interposed: bare envelopes
    are client traffic, everything else is ring traffic."""

    def __init__(self, gateway: ClientGateway, ring_receiver):
        self.gateway = gateway
        self.ring_receiver = ring_receiver

    def __call__(self, frame) -> None:
        if isinstance(frame.payload, Envelope):
            self.gateway.handle(frame)
        else:
            self.ring_receiver(frame)


def install_gateway(bed: Bed, node_id: str) -> None:
    """Put an admission-controlled client gateway in front of the node's
    Totem receiver."""
    testbed = bed.testbed
    node = testbed.node(node_id)
    gateway = ClientGateway(
        testbed.runtimes[node_id], node.iface, node_id=node_id,
        admission=AdmissionController(
            AdmissionConfig(), node_id=node_id,
            clock=lambda: testbed.kernel.now))
    node.set_receiver(GatewayTap(gateway, current_receiver(node)))
    bed.gateways.append(gateway)


def build_live_bed(workload: Workload, seed: int, *,
                   record_token_times: bool = False) -> Bed:
    testbed = LiveTestbed(
        node_ids=LIVE_NODES, seed=seed,
        totem_config=live_totem_config(
            record_token_times=record_token_times),
        auth_secret=AUTH_SECRET if workload.auth else None)
    bed = Bed(workload, testbed)
    try:
        _deploy(bed)
        testbed.start(settle=0.0)
        testbed.wait_until(lambda: _ring_formed(bed), poll=0.005)
        for node_id in LIVE_NODES:
            install_gateway(bed, node_id)
    except BaseException:
        bed.close()
        raise
    return bed


def _ring_formed(bed: Bed) -> bool:
    testbed = bed.testbed
    everyone = len(testbed.node_ids)
    return all(
        p.is_operational and len(p.members) == everyone
        for p in testbed.processors.values()
    ) and all(
        r.state_transfer.ready and len(r.view.members) == len(bed.server_nodes)
        for r in testbed.replicas(GROUP).values())
