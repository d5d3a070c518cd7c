"""LiveTestbed: the sim testbed API over real sockets and wall clocks.

The central claim: workload code written once against the testbed API
runs unmodified on either substrate.  ``clock_workload`` below is that
code — it is executed against both :class:`repro.Testbed` (simulated)
and :class:`repro.net.testbed.LiveTestbed` (UDP loopback, real time).
"""

import pytest

from repro import Testbed
from repro.net.testbed import LiveTestbed
from repro.sim import Cluster, ClusterConfig

from support import ClockApp  # noqa: E402 (tests/ on sys.path via conftest)

pytestmark = pytest.mark.live


def clock_workload(bed, calls: int = 4):
    """Deploy a replicated clock service, invoke it, return the values.

    Substrate-independent on purpose: everything here is the one
    ``Testbed`` API, which ``LiveTestbed`` only builds differently.  The replicas go on the last three nodes, the client on the
    first (on a 3-node bed the client shares its node with a replica,
    which the runtime supports).
    """
    bed.deploy("timesvc", ClockApp, nodes=bed.node_ids[-3:],
               style="active", time_source="cts")
    client = bed.client(bed.node_ids[0])
    bed.start()

    def scenario():
        values = []
        for _ in range(calls):
            result, _latency = yield from client.timed_call(
                "timesvc", "get_time", timeout=2.0)
            assert result.ok, result.error
            values.append(result.value)
        return values

    return bed.run_process(scenario())


class TestWorkloadPortability:
    def test_simulated_run(self):
        values = clock_workload(Testbed(num_nodes=4, seed=11))
        assert len(values) == 4
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_live_run(self):
        with LiveTestbed(num_nodes=3, seed=11) as bed:
            values = clock_workload(bed)
        assert len(values) == 4
        assert all(b > a for a, b in zip(values, values[1:]))


class TestLiveBasics:
    def test_nodes_get_distinct_ephemeral_ports(self):
        with LiveTestbed(num_nodes=3, seed=3) as bed:
            addresses = {bed.node(n).address for n in bed.node_ids}
            assert len(addresses) == 3
            assert all(port != 0 for _host, port in addresses)

    def test_wall_clocks_are_spread(self):
        with LiveTestbed(num_nodes=3, seed=5) as bed:
            epochs = [bed.node(n).clock.epoch_us for n in bed.node_ids]
            assert len(set(epochs)) == 3

    @pytest.mark.parametrize("node_ids", [None, ["a", "b", "c"]])
    def test_clocks_are_the_simulated_clusters(self, node_ids):
        # One clock model: at the same seed and ids a live bed's hosts
        # draw the epochs and drifts a simulated cluster's do.
        simulated = Cluster(ClusterConfig(num_nodes=3), seed=5,
                            node_ids=node_ids)
        with LiveTestbed(num_nodes=3, seed=5, node_ids=node_ids) as bed:
            assert bed.node_ids == simulated.node_ids
            for node_id in bed.node_ids:
                live, modelled = (bed.node(node_id).clock,
                                  simulated.node(node_id).clock)
                assert live.sim is bed.kernel
                assert (live.epoch_us, live.drift_ppm) == (
                    modelled.epoch_us, modelled.drift_ppm)

    def test_a_bed_that_fails_to_build_closes_its_loop(self, monkeypatch):
        import asyncio

        from repro.errors import NetworkError

        loops = []
        new_event_loop = asyncio.new_event_loop

        def capture():
            loops.append(new_event_loop())
            return loops[-1]

        monkeypatch.setattr(asyncio, "new_event_loop", capture)
        with pytest.raises(NetworkError, match="already attached"):
            LiveTestbed(node_ids=["a", "a"])
        assert len(loops) == 1 and loops[0].is_closed()

    def test_wait_until_polls_the_loop(self):
        with LiveTestbed(num_nodes=3, seed=7) as bed:
            bed.start(settle=0.2)
            elapsed = bed.wait_until(
                lambda: all(
                    len(bed.processors[n].members) == 3 for n in bed.node_ids
                ),
                timeout=8.0,
            )
            assert elapsed < 8.0
