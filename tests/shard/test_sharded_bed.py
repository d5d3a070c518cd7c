"""Sharded testbed topology and the routing tier.

Ring isolation is the load-bearing property: N Totem rings share one
simulated LAN, and only the per-shard multicast domains keep their
membership protocols from merging.  The router tests pin the
cross-shard session semantics — monotone reads across a migration.
"""

from repro.net.daemon import TimeApp
from repro.rpc import unwrap
from repro.shard import ShardedTestbed, ShardRouter, ShardSummary
from repro.shard.cluster import shard_nodes


class TestTopology:
    def test_each_shard_runs_its_own_ring(self):
        bed = ShardedTestbed(shards=3, shard_size=3, seed=0)
        bed.deploy_shards(TimeApp)
        bed.start()
        bed.run(1.0)
        for shard in range(3):
            expected = set(shard_nodes(shard, 3))
            for node_id in bed.server_nodes_of(shard):
                members = set(bed.processors[node_id].members)
                # A merged ring would list nodes from other shards.
                assert members, node_id
                assert members <= expected, (node_id, members)

    def test_every_shard_serves_time(self):
        bed = ShardedTestbed(shards=3, shard_size=3, seed=0)
        bed.deploy_shards(TimeApp)
        bed.start()
        values = {}

        def probe(shard):
            client = bed.shard_client(shard)
            result = yield client.call(
                bed.group_of(shard), "gettimeofday", None, timeout=2.0)
            values[shard] = unwrap(result)

        for shard in range(3):
            bed.sim.process(probe(shard), name=f"probe{shard}")
        bed.run(2.0)
        assert sorted(values) == [0, 1, 2]
        for reply in values.values():
            assert reply["micros"] > 0

    def test_node_naming_roundtrip(self):
        bed = ShardedTestbed(shards=2, shard_size=3, seed=0)
        for shard in range(2):
            for node_id in bed.server_nodes_of(shard):
                assert bed.shard_of_node(node_id) == shard
            assert bed.shard_of_node(bed.client_node_of(shard)) == shard
        assert bed.shard_of_group(bed.group_of(1)) == 1


class TestRouterMigration:
    def test_reads_stay_monotone_across_a_migration(self):
        bed = ShardedTestbed(shards=2, shard_size=3, seed=1)
        bed.deploy_shards(TimeApp)
        router = ShardRouter(bed)
        bed.start()
        values = []

        def driver():
            session = router.session("mover")
            home = bed.ring.owner("mover")
            for _ in range(5):
                reply = yield from router.call(session)
                values.append(reply["micros"])
            # Force a migration: drop the session's home shard from the
            # routing ring mid-stream.
            bed.ring.remove(home)
            for _ in range(5):
                reply = yield from router.call(session)
                values.append(reply["micros"])
            assert session.migrations >= 1
            bed.ring.add(home)

        bed.sim.process(driver(), name="driver")
        bed.run(3.0)
        assert len(values) == 10
        # The floor travelled with the session: strictly increasing
        # across the shard switch, even though the shards' group clocks
        # are seconds apart before the overlay aligns them.
        assert values == sorted(values)
        assert len(set(values)) == len(values)

    def test_sessions_are_sticky_without_topology_change(self):
        bed = ShardedTestbed(shards=3, shard_size=3, seed=0)
        bed.deploy_shards(TimeApp)
        router = ShardRouter(bed)
        bed.start()

        def driver():
            session = router.session("stable")
            for _ in range(6):
                yield from router.call(session)
            assert session.migrations == 0

        bed.sim.process(driver(), name="driver")
        bed.run(2.0)
        assert router.calls_routed == 6


class TestRecovery:
    def test_a_recovered_node_stays_in_its_own_ring(self):
        """A recover rebuilds the node's processor; the shard's domain
        filter must go back in front of it, or the node's join would
        merge every shard's ring into one."""
        bed = ShardedTestbed(shards=2, shard_size=3, seed=0)
        bed.deploy_shards(TimeApp)
        bed.start()
        bed.crash("s0n1")
        bed.run(0.5)
        bed.recover("s0n1")
        bed.run(1.0)
        for shard in range(2):
            expected = set(shard_nodes(shard, 3))
            for node_id in shard_nodes(shard, 3):
                assert set(bed.processors[node_id].members) == expected

        received = []
        bed.summary_sink = lambda node_id, summary: received.append(
            (node_id, summary.shard))
        summary = ShardSummary(shard=1, group=bed.group_of(1), value_us=1,
                               offset_us=0, round_seq=0, error_us=0)
        bed.node("s1n0").iface.unicast("s0n1", summary, size_bytes=96)
        bed.run(0.1)
        assert received == [("s0n1", 1)]
