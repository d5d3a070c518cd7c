"""Unit tests for the simulated host (Node) and Cluster builder."""

import random

import pytest

from repro.errors import NodeDown
from repro.sim import Cluster, ClusterConfig, Network, Node, Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def network(sim):
    return Network(sim, random.Random(0))


def make_node(sim, network, node_id="n0", **kwargs):
    return Node(sim, node_id, network, random.Random(99), **kwargs)


class TestNodeBasics:
    def test_clock_readable(self, sim, network):
        node = make_node(sim, network, clock_epoch_us=123)
        assert node.read_clock_us() == 123

    def test_receiver_gets_frames(self, sim, network):
        node_a = make_node(sim, network, "a")
        node_b = make_node(sim, network, "b")
        received = []
        node_b.set_receiver(lambda frame: received.append(frame.payload))
        node_a.iface.unicast("b", "ping")
        sim.run()
        assert received == ["ping"]

    def test_compute_scales_with_cpu_factor(self, sim, network):
        slow = make_node(sim, network, "slow", cpu_factor=0.5, cpu_jitter=0.0)
        fast = make_node(sim, network, "fast", cpu_factor=2.0, cpu_jitter=0.0)
        done = {}

        def work(node, tag):
            yield node.compute(1.0)
            done[tag] = sim.now

        slow.spawn(work(slow, "slow"))
        fast.spawn(work(fast, "fast"))
        sim.run()
        assert done["slow"] == pytest.approx(2.0)
        assert done["fast"] == pytest.approx(0.5)

    def test_busy_loop_duration_in_paper_range(self, sim, network):
        # 30k-90k iterations should land in roughly the paper's 60-400 us.
        node = make_node(sim, network)
        done = []

        def work():
            start = sim.now
            yield node.busy_loop(30_000)
            done.append(sim.now - start)
            start = sim.now
            yield node.busy_loop(90_000)
            done.append(sim.now - start)

        node.spawn(work())
        sim.run()
        assert 40e-6 < done[0] < 400e-6
        assert 40e-6 < done[1] < 500e-6
        assert done[1] > done[0]

    def test_invalid_cpu_factor_rejected(self, sim, network):
        with pytest.raises(ValueError):
            make_node(sim, network, cpu_factor=0.0)


class TestCrashRecover:
    def test_crash_kills_processes(self, sim, network):
        node = make_node(sim, network)
        trace = []

        def work():
            yield sim.timeout(10.0)
            trace.append("survived")

        node.spawn(work())
        sim.run(until=1.0)
        node.crash()
        sim.run()
        assert trace == []

    def test_crash_silences_interface(self, sim, network):
        node_a = make_node(sim, network, "a")
        node_b = make_node(sim, network, "b")
        received = []
        node_b.set_receiver(lambda frame: received.append(frame.payload))
        node_b.crash()
        node_a.iface.unicast("b", "ping")
        sim.run()
        assert received == []

    def test_crashed_clock_unreadable(self, sim, network):
        node = make_node(sim, network)
        node.crash()
        with pytest.raises(NodeDown):
            node.read_clock_us()

    def test_spawn_on_crashed_node_rejected(self, sim, network):
        node = make_node(sim, network)
        node.crash()
        with pytest.raises(NodeDown):
            node.spawn(iter(()))

    def test_recover_restores_clock_and_network(self, sim, network):
        node_a = make_node(sim, network, "a")
        node_b = make_node(sim, network, "b")
        received = []
        node_b.set_receiver(lambda frame: received.append(frame.payload))
        node_b.crash()
        sim.run(until=1.0)
        node_b.recover()
        assert node_b.read_clock_us() >= 0
        node_a.iface.unicast("b", "after")
        sim.run()
        assert received == ["after"]

    def test_crash_is_idempotent(self, sim, network):
        node = make_node(sim, network)
        node.crash()
        node.crash()
        assert node.crash_count == 1


class TestAddress:
    def test_a_modelled_port_has_no_socket_address(self, sim, network):
        assert make_node(sim, network).address is None


class TestCluster:
    def test_default_matches_paper_testbed(self):
        cluster = Cluster()
        assert cluster.node_ids == ["n0", "n1", "n2", "n3"]

    def test_clocks_unsynchronized(self):
        cluster = Cluster(seed=5)
        epochs = {node.clock.epoch_us for node in cluster.nodes.values()}
        assert len(epochs) == 4

    def test_same_seed_same_clocks(self):
        first = Cluster(seed=9)
        second = Cluster(seed=9)
        for nid in first.node_ids:
            assert first.node(nid).clock.epoch_us == second.node(nid).clock.epoch_us
            assert first.node(nid).clock.drift_ppm == second.node(nid).clock.drift_ppm

    def test_config_is_honoured(self):
        config = ClusterConfig(num_nodes=2, clock_drift_ppm_max=0.0)
        cluster = Cluster(config, seed=1, node_ids=["host0", "host1"])
        assert cluster.node_ids == ["host0", "host1"]
        for node in cluster.nodes.values():
            assert node.clock.drift_ppm == 0.0

    def test_empty_cluster_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            Cluster(ClusterConfig(num_nodes=0))
        # An empty id list is given, not absent: no default n0..n3.
        with pytest.raises(ConfigurationError, match="at least one node"):
            Cluster(node_ids=[])
