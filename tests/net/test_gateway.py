"""ClientGateway idempotency: retries replay, they never re-execute;
an op's first reply is forwarded, the rest recorded for the replay."""

from repro import obs
from repro.control.admission import AdmissionConfig, AdmissionController
from repro.net.daemon import ClientGateway
from repro.net.udp import LiveFrame
from repro.replication.envelope import MsgType, make_envelope
from repro.rpc.messages import Invocation, Result


class FakeEndpoint:
    def __init__(self):
        self.joined = False
        self.mcasts = []
        self.on_message = None

    def join(self):
        self.joined = True

    def mcast(self, envelope):
        self.mcasts.append(envelope)


class FakeClock:
    """Stands in for the kernel: the gateway reads ``runtime.sim.now``."""

    def __init__(self):
        self.now = 0.0


class FakeRuntime:
    """What a gateway takes from its node's group runtime: endpoints, the
    kernel clock and the bus, recording from the start."""

    def __init__(self):
        self.endpoints = {}
        self.sim = FakeClock()
        bus = obs.Bus()
        self.tracer, self.metrics = bus.tracer, bus.metrics
        self.metrics.enable()

    def endpoint(self, group):
        endpoint = self.endpoints.setdefault(group, FakeEndpoint())
        return endpoint


class FakePort:
    def __init__(self):
        self.sent = []  # (addr, envelope)

    def sendto(self, addr, envelope):
        self.sent.append((addr, envelope))


def request(seq, conn_id=1, client="c1", group="timesvc"):
    return make_envelope(MsgType.REQUEST, f"client.{client}", group,
                         conn_id, seq, client,
                         body=Invocation("gettimeofday", ()))


def reply(seq, conn_id=1, client="c1", sender="n0", value=123):
    return make_envelope(MsgType.REPLY, "timesvc", f"client.{client}",
                         conn_id, seq, sender, body=Result(value=value))


ADDR_A = ("127.0.0.1", 40001)
ADDR_B = ("127.0.0.1", 40002)


def make_gateway(admission=None):
    runtime, port = FakeRuntime(), FakePort()
    return (ClientGateway(runtime, port, node_id="n0", admission=admission),
            runtime, port)


def evictions(gateway):
    """The gateway's window evictions by reason, each checked against
    the ``gateway_dedup_evictions_total{reason}`` series read from it."""
    family = gateway.metrics.get("gateway_dedup_evictions_total")
    for reason, count in gateway.dedup_evictions.items():
        assert family.value(node=gateway.node_id, reason=reason) == count
    return gateway.dedup_evictions


def replies(seq, values=(123, 123, 123)):
    return [reply(seq, sender=f"n{i}", value=value)
            for i, value in enumerate(values)]


class TestGatewayDedup:
    def test_first_request_enters_the_order(self):
        gateway, runtime, port = make_gateway()
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        endpoint = runtime.endpoints["client.c1"]
        assert endpoint.joined
        assert len(endpoint.mcasts) == 1
        assert gateway.requests_injected == 1
        assert gateway.requests_deduplicated == 0

    def test_retry_of_inflight_op_is_not_reinjected(self):
        gateway, runtime, port = make_gateway()
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))  # retry
        assert len(runtime.endpoints["client.c1"].mcasts) == 1
        assert gateway.requests_deduplicated == 1
        assert port.sent == []  # nothing answered yet, nothing to replay

    def test_retry_after_reply_replays_the_recorded_answer(self):
        gateway, runtime, port = make_gateway()
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        answer = reply(1)
        runtime.endpoints["client.c1"].on_message(answer)
        assert port.sent == [(ADDR_A, answer)]

        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))  # retry
        assert len(runtime.endpoints["client.c1"].mcasts) == 1  # no re-exec
        assert port.sent == [(ADDR_A, answer), (ADDR_A, answer)]
        assert gateway.replies_replayed == 1
        assert gateway.replies_forwarded == 1

    def test_retry_refreshes_the_reply_route(self):
        gateway, runtime, port = make_gateway()
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        runtime.endpoints["client.c1"].on_message(reply(1))
        # The client rebound its socket; the retry carries the new addr.
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_B))
        assert port.sent[-1][0] == ADDR_B

    def test_distinct_ops_are_not_confused(self):
        gateway, runtime, port = make_gateway()
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        gateway.handle(LiveFrame("c1", request(2), 64, ADDR_A))
        gateway.handle(LiveFrame("c1", request(2, conn_id=2), 64, ADDR_A))
        assert len(runtime.endpoints["client.c1"].mcasts) == 3
        assert gateway.requests_deduplicated == 0

    def test_same_seq_to_different_groups_is_not_a_retry(self):
        # A migrating client reuses its (conn, seq) counters against its
        # new home shard.  The operation id is keyed by the destination
        # group too, so the second request must execute, not replay.
        gateway, runtime, port = make_gateway()
        gateway.handle(LiveFrame("c1", request(1, group="shard0"), 64, ADDR_A))
        gateway.handle(LiveFrame("c1", request(1, group="shard1"), 64, ADDR_A))
        assert gateway.requests_injected == 2
        assert gateway.requests_deduplicated == 0
        # Both rode the same client group endpoint: two distinct mcasts.
        assert len(runtime.endpoints["client.c1"].mcasts) == 2

    def test_window_eviction_forgets_oldest(self):
        gateway, runtime, port = make_gateway()
        for seq in range(1, ClientGateway.DEDUP_WINDOW + 2):
            gateway.handle(LiveFrame("c1", request(seq), 64, ADDR_A))
        # seq 1 was evicted: its retry is treated as new and re-injected.
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        assert gateway.requests_deduplicated == 0
        assert gateway.requests_injected == ClientGateway.DEDUP_WINDOW + 2
        # One eviction for the overflow insert, one more when the
        # re-executed op 1 pushed the window over again.
        assert evictions(gateway) == {"window": 2}


class TestGatewayAnswersOnce:
    """Active replication answers from every member; the caller gets the
    first reply and the others only on asking again."""

    def deliver(self, runtime, *envelopes):
        for envelope in envelopes:
            runtime.endpoints["client.c1"].on_message(envelope)

    def test_first_reply_forwarded_later_ones_recorded_not_sent(self):
        gateway, runtime, port = make_gateway()
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        first, second, third = replies(1)
        self.deliver(runtime, first, second, third)
        assert port.sent == [(ADDR_A, first)]
        assert gateway.replies_forwarded == 1
        assert gateway.replies_suppressed == 2
        assert gateway.replies_divergent == 0

    def test_retry_after_three_replies_replays_three_to_the_new_route(self):
        gateway, runtime, port = make_gateway()
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        answers = replies(1)
        self.deliver(runtime, *answers)
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_B))  # asks again
        assert port.sent[1:] == [(ADDR_B, answer) for answer in answers]
        assert gateway.replies_replayed == 3
        assert gateway.replies_forwarded == 1
        assert gateway.requests_injected == 1

    def test_retry_between_first_and_third_replays_what_is_there(self):
        gateway, runtime, port = make_gateway()
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        first, second, third = replies(1)
        self.deliver(runtime, first, second)
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        assert port.sent == [(ADDR_A, first), (ADDR_A, first), (ADDR_A, second)]
        self.deliver(runtime, third)  # still recorded, still not sent
        assert len(port.sent) == 3
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        assert port.sent[3:] == [(ADDR_A, first), (ADDR_A, second),
                                 (ADDR_A, third)]
        assert gateway.replies_replayed == 5

    def test_op_evicted_from_the_window_forwards_every_reply(self):
        gateway, runtime, port = make_gateway()
        for seq in range(1, ClientGateway.DEDUP_WINDOW + 2):
            gateway.handle(LiveFrame("c1", request(seq), 64, ADDR_A))
        answers = replies(1)  # op 1 is out: nothing to replay it from
        self.deliver(runtime, *answers)
        assert port.sent == [(ADDR_A, answer) for answer in answers]
        assert gateway.replies_forwarded == 3
        assert gateway.replies_suppressed == 0

    def test_a_differing_recorded_reply_is_counted(self):
        # Per-replica values (``physical``: the Figure-1 hazard) — the
        # comparison the caller made over three datagrams is made here.
        gateway, runtime, port = make_gateway()
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        self.deliver(runtime, *replies(1, values=(100, 100, 107)))
        assert gateway.replies_suppressed == 2
        assert gateway.replies_divergent == 1


class TestGatewayAdmission:
    def admitting(self, **config):
        clock = FakeClock()
        controller = AdmissionController(AdmissionConfig(**config),
                                         node_id="n0", clock=lambda: clock.now)
        return make_gateway(controller) + (controller,)

    def test_slot_is_freed_when_the_route_is_gone(self):
        gateway, runtime, port, controller = self.admitting()
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        assert controller.inflight == 1
        del gateway.routes["client.c1"]  # LRU-evicted (ROUTES_CAP)
        runtime.endpoints["client.c1"].on_message(reply(1))
        assert port.sent == []
        assert controller.inflight == 0
        assert controller.stats.completed == 1
        # Recorded all the same: the retry brings a route and gets it.
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_B))
        assert [addr for addr, _ in port.sent] == [ADDR_B]

    def test_shed_ops_later_admission_is_a_fresh_op(self):
        gateway, runtime, port, controller = self.admitting(
            max_inflight=1, max_global_queue=0)
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        gateway.handle(LiveFrame("c1", request(2), 64, ADDR_A))  # shed
        assert gateway.requests_shed == 1
        overloaded = port.sent[-1][1]
        assert overloaded.body.error is not None
        runtime.endpoints["client.c1"].on_message(reply(1))  # frees the slot
        gateway.handle(LiveFrame("c1", request(2), 64, ADDR_A))
        assert gateway.requests_deduplicated == 0  # not a replay of nothing
        assert gateway.requests_injected == 2
        first, second, third = replies(2)
        sent_before = len(port.sent)
        for envelope in (first, second, third):
            runtime.endpoints["client.c1"].on_message(envelope)
        assert port.sent[sent_before:] == [(ADDR_A, first)]


def make_timed_gateway():
    gateway, runtime, port = make_gateway()
    return gateway, runtime, port, runtime.sim


class TestGatewayWindowBounds:
    """The idempotency window is bounded by age as well as count."""

    def test_stale_ops_expire_after_the_ttl(self):
        gateway, runtime, port, clock = make_timed_gateway()
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        clock.now = ClientGateway.DEDUP_TTL_S + 1.0
        # Any traffic sweeps the expired entry out...
        gateway.handle(LiveFrame("c1", request(2), 64, ADDR_A))
        assert evictions(gateway) == {"ttl": 1}
        # ...so a (pathologically late) retry of op 1 re-executes.
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        assert gateway.requests_deduplicated == 0
        assert gateway.requests_injected == 3

    def test_retry_refreshes_the_ttl(self):
        gateway, runtime, port, clock = make_timed_gateway()
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        clock.now = ClientGateway.DEDUP_TTL_S - 1.0
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))  # retry
        assert gateway.requests_deduplicated == 1
        # One TTL after the *retry*, not the original: still remembered.
        clock.now += ClientGateway.DEDUP_TTL_S - 1.0
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        assert gateway.requests_deduplicated == 2
        assert evictions(gateway) == {}

    def test_fresh_ops_survive_the_sweep(self):
        gateway, runtime, port, clock = make_timed_gateway()
        gateway.handle(LiveFrame("c1", request(1), 64, ADDR_A))
        clock.now = ClientGateway.DEDUP_TTL_S + 1.0
        gateway.handle(LiveFrame("c1", request(2), 64, ADDR_A))
        clock.now += 1.0
        gateway.handle(LiveFrame("c1", request(2), 64, ADDR_A))  # retry
        assert gateway.requests_deduplicated == 1
        assert evictions(gateway) == {"ttl": 1}  # only op 1 aged out

    def test_route_table_is_lru_bounded(self):
        gateway, runtime, port, clock = make_timed_gateway()
        for i in range(ClientGateway.ROUTES_CAP + 5):
            gateway.handle(LiveFrame("c", request(1, client=f"c{i}"), 64, ADDR_A))
        assert len(gateway.routes) == ClientGateway.ROUTES_CAP
        assert "client.c0" not in gateway.routes
