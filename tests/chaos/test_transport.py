"""ChaosTransport: seeded impairment decisions over a fake transport.

These tests drive the decorator against an in-memory double of the
transport contract (no sockets, no kernel thread), so every decision —
drop, delay, duplicate, partition, isolation, rule specificity — is
checked deterministically.
"""

import pytest

from repro.chaos.transport import ChaosTransport
from repro.errors import NetworkError


class FakeKernel:
    """Records scheduled callbacks; fires them on demand."""

    def __init__(self):
        self.scheduled = []

    def schedule(self, delay, fn, *args):
        self.scheduled.append((delay, fn, args))

    def run_due(self):
        pending, self.scheduled = self.scheduled, []
        for _delay, fn, args in pending:
            fn(*args)


class FakePort:
    """Inner port double: records deliveries instead of sending."""

    def __init__(self, transport, node_id):
        self.transport = transport
        self.node_id = node_id
        self.up = True
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0

    def unicast(self, dst, payload, size_bytes=128):
        if not self.up:
            raise NetworkError(f"{self.node_id} down")
        self.frames_sent += 1
        self.transport.delivered.append((self.node_id, dst, payload))

    def multicast(self, payload, size_bytes=128):  # pragma: no cover
        raise AssertionError("chaos fans multicast out as unicasts")

    def sendto(self, addr, payload):
        self.transport.direct.append((self.node_id, addr, payload))

    @property
    def address(self):
        return ("127.0.0.1", 0)


class FakeTransport:
    """Inner transport double backing the decorator."""

    def __init__(self):
        self.ports = {}
        self.delivered = []   # (src, dst, payload)
        self.direct = []      # (src, addr, payload) via sendto
        self.closed = False

    def attach(self, node_id, deliver):
        port = FakePort(self, node_id)
        self.ports[node_id] = port
        return port

    def detach(self, node_id):
        self.ports.pop(node_id, None)

    def close(self):
        self.closed = True


def make_chaos(seed=7, nodes=("n0", "n1", "n2")):
    inner = FakeTransport()
    kernel = FakeKernel()
    chaos = ChaosTransport(inner, kernel, seed=seed)
    ports = {n: chaos.attach(n, lambda frame: None) for n in nodes}
    return chaos, inner, kernel, ports


class TestPassThrough:
    def test_quiet_wire_delivers_everything(self):
        chaos, inner, kernel, ports = make_chaos()
        for i in range(20):
            ports["n0"].unicast("n1", f"m{i}")
        assert len(inner.delivered) == 20
        assert kernel.scheduled == []
        assert chaos.frames_dropped == 0

    def test_multicast_fans_out_per_peer(self):
        chaos, inner, kernel, ports = make_chaos()
        ports["n0"].multicast("hello")
        # One leg per attached peer other than the sender.
        assert sorted(dst for _s, dst, _p in inner.delivered) == ["n1", "n2"]
        # A unicast to oneself still goes (a singleton ring's token).
        ports["n0"].unicast("n0", "token")
        assert inner.delivered[-1] == ("n0", "n0", "token")

    def test_up_is_delegated_to_inner_port(self):
        chaos, inner, kernel, ports = make_chaos()
        ports["n0"].up = False
        assert inner.ports["n0"].up is False
        with pytest.raises(NetworkError):
            ports["n0"].unicast("n1", "m")
        ports["n0"].up = True
        ports["n0"].unicast("n1", "m")
        assert len(inner.delivered) == 1

    def test_sendto_is_never_impaired(self):
        chaos, inner, kernel, ports = make_chaos()
        chaos.set_drop(1.0)
        ports["n0"].sendto(("127.0.0.1", 9), "reply")
        assert inner.direct == [("n0", ("127.0.0.1", 9), "reply")]


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        outcomes = []
        for _run in range(2):
            chaos, inner, kernel, ports = make_chaos(seed=42)
            chaos.set_drop(0.5)
            for i in range(200):
                ports["n0"].unicast("n1", i)
            outcomes.append([p for _s, _d, p in inner.delivered])
        assert outcomes[0] == outcomes[1]
        assert 0 < len(outcomes[0]) < 200  # the rate actually bites

    def test_different_seeds_diverge(self):
        outcomes = []
        for seed in (1, 2):
            chaos, inner, kernel, ports = make_chaos(seed=seed)
            chaos.set_drop(0.5)
            for i in range(200):
                ports["n0"].unicast("n1", i)
            outcomes.append([p for _s, _d, p in inner.delivered])
        assert outcomes[0] != outcomes[1]

    def test_pairs_draw_independent_streams(self):
        # Traffic on one pair must not perturb another pair's stream.
        chaos, inner, kernel, ports = make_chaos(seed=9)
        chaos.set_drop(0.5)
        for i in range(100):
            ports["n0"].unicast("n1", i)
        solo = [p for _s, d, p in inner.delivered if d == "n1"]

        chaos2, inner2, kernel2, ports2 = make_chaos(seed=9)
        chaos2.set_drop(0.5)
        for i in range(100):
            ports2["n0"].unicast("n1", i)
            ports2["n0"].unicast("n2", i)  # interleaved extra traffic
        mixed = [p for _s, d, p in inner2.delivered if d == "n1"]
        assert solo == mixed


class TestTopology:
    def test_partition_blocks_across_components(self):
        chaos, inner, kernel, ports = make_chaos()
        chaos.partition({"n0", "n1"}, {"n2"})
        ports["n0"].unicast("n1", "intra")
        ports["n0"].unicast("n2", "cross")
        assert [(s, d) for s, d, _p in inner.delivered] == [("n0", "n1")]
        assert chaos.frames_blocked == 1
        assert not chaos.reachable("n0", "n2")
        assert chaos.reachable("n2", "n2")  # a unicast to oneself survives

    def test_isolate_cuts_both_directions(self):
        chaos, inner, kernel, ports = make_chaos()
        chaos.isolate("n2")
        ports["n0"].unicast("n2", "in")
        ports["n2"].unicast("n0", "out")
        assert inner.delivered == []
        assert chaos.frames_blocked == 2

    def test_heal_restores_but_keeps_rules(self):
        chaos, inner, kernel, ports = make_chaos()
        chaos.set_drop(1.0)
        chaos.partition({"n0"}, {"n1", "n2"})
        chaos.heal()
        assert chaos.reachable("n0", "n1")
        ports["n0"].unicast("n1", "m")
        assert inner.delivered == []  # the drop rule survived the heal
        assert chaos.frames_dropped == 1

    def test_clear_resets_everything(self):
        chaos, inner, kernel, ports = make_chaos()
        chaos.set_drop(1.0)
        chaos.isolate("n1")
        chaos.clear()
        ports["n0"].unicast("n1", "m")
        assert len(inner.delivered) == 1


class TestImpairments:
    def test_drop_rate_one_loses_everything(self):
        chaos, inner, kernel, ports = make_chaos()
        chaos.set_drop(1.0)
        for i in range(10):
            ports["n0"].unicast("n1", i)
        assert inner.delivered == []
        assert chaos.frames_dropped == 10

    def test_delay_holds_frames_on_the_kernel(self):
        chaos, inner, kernel, ports = make_chaos()
        chaos.set_delay(0.05)
        ports["n0"].unicast("n1", "late")
        assert inner.delivered == []
        assert len(kernel.scheduled) == 1
        assert kernel.scheduled[0][0] >= 0.05
        kernel.run_due()
        assert [p for _s, _d, p in inner.delivered] == ["late"]
        assert chaos.frames_delayed == 1

    def test_delayed_frame_dies_with_crashed_sender(self):
        chaos, inner, kernel, ports = make_chaos()
        chaos.set_delay(0.05)
        ports["n0"].unicast("n1", "doomed")
        ports["n0"].up = False  # crash while the frame is "in flight"
        kernel.run_due()        # must neither deliver nor raise
        assert inner.delivered == []

    def test_duplicate_rate_one_sends_two_copies(self):
        chaos, inner, kernel, ports = make_chaos()
        chaos.set_duplicate(1.0)
        ports["n0"].unicast("n1", "twice")
        kernel.run_due()  # the extra copy is slightly delayed
        assert [p for _s, _d, p in inner.delivered] == ["twice", "twice"]
        assert chaos.frames_duplicated == 1

    def test_self_delivery_is_never_impaired(self):
        chaos, inner, kernel, ports = make_chaos()
        chaos.set_drop(1.0)
        chaos.set_delay(1.0)
        assert chaos.decide("n0", "n0") == [0.0]

    def test_specific_pair_rule_overrides_wildcard(self):
        chaos, inner, kernel, ports = make_chaos()
        chaos.set_drop(1.0)                      # (ANY, ANY)
        chaos.set_drop(0.0, src="n0", dst="n1")  # exact pair wins
        ports["n0"].unicast("n1", "spared")
        ports["n0"].unicast("n2", "lost")
        assert [p for _s, _d, p in inner.delivered] == ["spared"]

    def test_src_wildcard_beats_dst_wildcard(self):
        chaos, inner, kernel, ports = make_chaos()
        chaos.set_drop(0.0, src="n0")   # (src, ANY)
        chaos.set_drop(1.0, dst="n1")   # (ANY, dst) — lower precedence
        ports["n0"].unicast("n1", "kept")
        assert [p for _s, _d, p in inner.delivered] == ["kept"]

    def test_reorder_holds_selected_frames(self):
        chaos, inner, kernel, ports = make_chaos()
        chaos.set_reorder(1.0, window_s=0.02)
        ports["n0"].unicast("n1", "a")
        assert inner.delivered == []  # held back on the kernel
        assert len(kernel.scheduled) == 1
        assert 0.0 < kernel.scheduled[0][0] <= 0.02
