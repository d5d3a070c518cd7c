"""The sharded testbed: N independent Totem rings on one simulated LAN.

Each shard ``g`` is one CCS group ``shard{g}`` — ``shard_size`` server
nodes ``s{g}n0..`` plus one client node ``s{g}c`` — running its own
Totem ring.  All shards share a single simulation kernel and network
substrate, which is what lets the cross-shard overlay (unicast) and
shard-scoped chaos faults (network partitions) compose with them.

One substrate, many rings, needs **multicast domains**: Totem multicasts
LAN-wide, and its membership protocol merges *any* join sender into the
ring, so N rings on one broadcast network would collapse into one.  The
sharded testbed therefore interposes, on every node, a domain filter
that drops multicast frames originating outside the node's shard (its
ring's membership) — the simulated analogue of per-shard VLANs /
multicast groups in a real deployment; the bed puts it back in front of
a recovered node's rebuilt processor.  Unicast frames cross shards
freely; that is the overlay's channel.  :class:`ShardSummary` payloads
are intercepted in the same wrapper and routed to the overlay (they are
addressed to a node, not a group, so Totem should never see them).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, List, Optional

from ..core import GradientSteering
from ..errors import ConfigurationError
from ..obs import Bus
from ..sim import Cluster
from ..sim.network import Frame
from ..testbed import Testbed
from .overlay import GradientOverlay, OverlayConfig
from .ring import HashRing
from .router import ShardRouter
from .summary import ShardSummary

__all__ = ["ShardedTestbed", "sharded_fleet",
           "shard_server_nodes", "shard_client_node", "shard_nodes"]

#: Every shard's steering: the fraction ``p`` of a neighbor delta folded
#: into a proposal, and the per-proposal step cap ``S`` (the overlay's
#: contraction point needs ``S >= p * g*``; docs/sharding.md).
STEERING_PROPORTION = 0.5
STEERING_MAX_STEP_US = 2_000

#: A sink for intercepted summaries: (receiving node, summary) -> None.
SummarySink = Callable[[str, ShardSummary], None]


def shard_server_nodes(shard: int, shard_size: int) -> List[str]:
    """The server node ids of one shard: ``s{g}n0 .. s{g}n{size-1}``."""
    return [f"s{shard}n{r}" for r in range(shard_size)]


def shard_client_node(shard: int) -> str:
    """The shard's client/gateway node id: ``s{g}c``."""
    return f"s{shard}c"


def shard_nodes(shard: int, shard_size: int) -> List[str]:
    """All node ids of one shard (servers then client) — the unit the
    chaos DSL's shard-scoped partitions operate on."""
    return shard_server_nodes(shard, shard_size) + [shard_client_node(shard)]


class ShardedTestbed(Testbed):
    """``shards`` independent CCS groups on one simulated network:
    ``shards`` rings of ``shard_size`` servers plus one client node each.

    Builds the multicast-domain topology, deploys one time-serving group
    per shard (each sharing one :class:`GradientSteering` instance across
    its replicas — the overlay's steering input), and exposes the
    consistent-hash ring the router and overlay both walk.  Clock
    epochs and drift come from the flat testbed's seeded streams, so
    shard group clocks start seconds apart — exactly the condition the
    gradient overlay's initial alignment has to erase.
    """

    def __init__(self, *, shards: int = 3, shard_size: int = 3,
                 seed: int = 0, obs: Optional[Bus] = None):
        if shards < 1 or shard_size < 1:
            raise ConfigurationError(
                "need at least one shard of at least one server")
        self.shards = shards
        self.shard_size = shard_size
        self.chaos_seed = seed  # corrupt-state draws from the run's seed
        memberships: Dict[str, List[str]] = {}
        for shard in range(shards):
            members = shard_nodes(shard, shard_size)
            memberships.update(dict.fromkeys(members, members))
        self._init_stack(Cluster(seed=seed, node_ids=list(memberships),
                                 obs=obs),
                         None, memberships)
        #: Set by the overlay: receives intercepted ShardSummary frames.
        self.summary_sink: Optional[SummarySink] = None
        #: Shared per-shard steering hooks (populated by deploy_shards).
        self.steerings: Dict[int, GradientSteering] = {}
        self.ring = HashRing(list(range(shards)))
        for node_id, members in memberships.items():
            self.interpose(node_id, partial(
                self._domain_filter, node_id, frozenset(members)))

    # -- topology helpers ----------------------------------------------

    def group_of(self, shard: int) -> str:
        return f"shard{shard}"

    def shard_of_group(self, group: str) -> int:
        return int(group[len("shard"):])

    def shard_of_node(self, node_id: str) -> int:
        return int(node_id[1:].split("n")[0].rstrip("c"))

    def server_nodes_of(self, shard: int) -> List[str]:
        return shard_server_nodes(shard, self.shard_size)

    def client_node_of(self, shard: int) -> str:
        return shard_client_node(shard)

    def primary_node_of(self, shard: int) -> Optional[str]:
        """The first live replica's node (deployment order) — the member
        that speaks for the shard on the overlay."""
        replicas = self.services.get(self.group_of(shard), {})
        for node_id in replicas:
            if self.node(node_id).alive:
                return node_id
        return None

    def shard_client(self, shard: int):
        """An RPC client homed on the shard's client node."""
        return self.client(self.client_node_of(shard))

    # -- deployment -----------------------------------------------------

    def deploy_shards(self, app_factory, *, fast_path: bool = True,
                      **deploy_options) -> None:
        """Deploy ``app_factory`` as one active CTS group per shard
        (``deploy_options`` as :meth:`deploy`; the fast path is on
        unless asked otherwise).

        Every shard gets its own :class:`GradientSteering` (shared by
        the shard's replicas — the testbed hands one drift object to
        every factory), recorded in :attr:`steerings` for the overlay.
        """
        for shard in range(self.shards):
            steering = GradientSteering(
                STEERING_PROPORTION, max_step_us=STEERING_MAX_STEP_US)
            self.steerings[shard] = steering
            self.deploy(
                self.group_of(shard), app_factory,
                nodes=self.server_nodes_of(shard),
                style="active", time_source="cts", drift=steering,
                fast_path=fast_path, **deploy_options,
            )

    # -- group clock access ---------------------------------------------

    def estimate_group_us(self, shard: int) -> Optional[int]:
        """The shard's live group-clock estimate: the primary's physical
        clock plus its committed offset (what the fast path serves).
        None while the shard has no live primary or no committed round."""
        node_id = self.primary_node_of(shard)
        if node_id is None:
            return None
        replica = self.services[self.group_of(shard)][node_id]
        source = replica.time_source
        clock_state = getattr(source, "clock_state", None)
        if clock_state is None or clock_state.last_group_us is None:
            return None
        return self.node(node_id).read_clock_us() + clock_state.offset_us

    def build_summary(self, shard: int,
                      secret: Optional[str] = None) -> Optional[ShardSummary]:
        """The shard's current advertisement, signed if a secret is set."""
        value_us = self.estimate_group_us(shard)
        if value_us is None:
            return None
        source = self.services[self.group_of(shard)][
            self.primary_node_of(shard)].time_source
        rounds = getattr(getattr(source, "stats", None), "rounds_completed", 0)
        summary = ShardSummary(
            shard=shard, group=self.group_of(shard), value_us=value_us,
            offset_us=source.clock_state.offset_us, round_seq=rounds,
            error_us=source.drift_bound.max_error_us)
        return summary.sign(secret)

    def send_summary(self, src_shard: int, dst_shard: int,
                     summary: ShardSummary) -> bool:
        """Unicast ``summary`` from ``src_shard``'s primary to
        ``dst_shard``'s primary.  Returns False if either side has no
        live primary (the overlay just skips the tick)."""
        src_node = self.primary_node_of(src_shard)
        dst_node = self.primary_node_of(dst_shard)
        if src_node is None or dst_node is None:
            return False
        self.node(src_node).iface.unicast(dst_node, summary, size_bytes=96)
        return True

    # -- multicast domains ----------------------------------------------

    def _domain_filter(self, node_id: str, domain: frozenset,
                       inner: Callable[[Frame], None]):
        """The tap in front of ``node_id``'s receiver ``inner``: the
        shard's multicast domain, and the overlay's mailbox."""
        def filtered(frame: Frame) -> None:
            payload = frame.payload
            if isinstance(payload, ShardSummary):
                # Overlay traffic: addressed to this node, never Totem's.
                if self.summary_sink is not None:
                    self.summary_sink(node_id, payload)
                return
            if frame.dst is None and frame.src not in domain:
                return  # another shard's multicast domain
            inner(frame)

        return filtered


def sharded_fleet(app_factory, *, shards: int, shard_size: int, seed: int,
                  fast_path: bool = True, max_staleness_us: int = 2_000,
                  oracle=None, obs: Optional[Bus] = None,
                  **overlay_options):
    """A deployed fleet, not yet started: the sharded bed with
    ``app_factory`` on every shard, the gradient overlay between the
    shards (``overlay_options`` are :class:`OverlayConfig` fields) and
    the session router in front.  Returns ``(bed, overlay, router)``.

    With an ``oracle``, every overlay summary and every routed reply
    feeds it — replies only once the skew envelope has warmed up (the
    initial epoch-alignment jumps are not staleness), and with the
    overlay's hop bound as rate slack.  ``obs`` is the bus the bed
    records into (its own by default).
    """
    bed = ShardedTestbed(shards=shards, shard_size=shard_size, seed=seed,
                         obs=obs)
    bed.deploy_shards(app_factory, fast_path=fast_path,
                      max_staleness_us=max_staleness_us)
    config = OverlayConfig(**overlay_options)
    overlay = GradientOverlay(bed, config, oracle=oracle)
    router = ShardRouter(bed, oracle=oracle,
                         oracle_gate=lambda: overlay.skew.warmed_up,
                         rate_slack_us=config.hop_bound_us)
    return bed, overlay, router
