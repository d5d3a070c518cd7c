"""Multiple replicated services multiplexed over one Totem ring."""

import pytest

from support import ClockApp, CounterApp, call_n, make_testbed  # noqa: E402


class TestMultipleServices:
    def test_services_are_isolated(self):
        bed = make_testbed(seed=260)
        bed.deploy("count-a", CounterApp, ["n1", "n2"], time_source="local")
        bed.deploy("count-b", CounterApp, ["n2", "n3"], time_source="local")
        client = bed.client("n0")
        bed.start()
        assert call_n(bed, client, "count-a", "increment", 3) == [1, 2, 3]
        assert call_n(bed, client, "count-b", "increment", 2) == [1, 2]
        bed.run(0.1)
        assert bed.replicas("count-a")["n1"].app.count == 3
        assert bed.replicas("count-b")["n3"].app.count == 2

    def test_two_cts_groups_have_independent_group_clocks(self):
        bed = make_testbed(seed=261, epoch_spread_s=30.0)
        bed.record()
        bed.deploy("clock-a", ClockApp, ["n1", "n2"], time_source="cts")
        bed.deploy("clock-b", ClockApp, ["n2", "n3"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        values_a = call_n(bed, client, "clock-a", "get_time", 4)
        values_b = call_n(bed, client, "clock-b", "get_time", 4)
        # Each group's clock is internally monotone...
        assert all(b > a for a, b in zip(values_a, values_a[1:]))
        assert all(b > a for a, b in zip(values_b, values_b[1:]))
        # ...and each group is internally consistent.
        bed.run(0.1)
        for group in ("clock-a", "clock-b"):
            readings = [
                tuple(v.micros for _, _, _, v in r.time_source.recorder.readings)[-4:]
                for r in bed.replicas(group).values()
            ]
            assert readings[0] == readings[1]

    def test_shared_node_hosts_both_replicas(self):
        bed = make_testbed(seed=262)
        bed.deploy("alpha", CounterApp, ["n1", "n2"], time_source="local")
        bed.deploy("beta", CounterApp, ["n2", "n3"], time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "alpha", "increment", 2)
        call_n(bed, client, "beta", "increment", 5)
        bed.run(0.1)
        shared_alpha = bed.replicas("alpha")["n2"]
        shared_beta = bed.replicas("beta")["n2"]
        assert shared_alpha.app.count == 2
        assert shared_beta.app.count == 5

    def test_crash_affects_both_services_on_node(self):
        bed = make_testbed(seed=263)
        bed.deploy("alpha", CounterApp, ["n1", "n2"], time_source="local")
        bed.deploy("beta", CounterApp, ["n2", "n3"], time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "alpha", "increment", 1)
        call_n(bed, client, "beta", "increment", 1)
        bed.crash("n2")
        bed.run(0.5)
        # Both groups lost their n2 member but survive on the other node.
        assert call_n(bed, client, "alpha", "increment", 1) == [2]
        assert call_n(bed, client, "beta", "increment", 1) == [2]
        assert bed.replicas("alpha")["n1"].view.members == ("n1",)
        assert bed.replicas("beta")["n3"].view.members == ("n3",)


class TestConcurrentClients:
    def test_interleaved_clients_yield_one_total_order(self):
        bed = make_testbed(seed=264)
        bed.deploy("svc", CounterApp, ["n1", "n2", "n3"], time_source="local")
        client_a = bed.client("n0", "client-a")
        client_b = bed.client("n0", "client-b")
        bed.start()

        results = {"a": [], "b": []}

        def caller(client, tag, n):
            def scenario():
                for _ in range(n):
                    result, _ = yield from client.timed_call(
                        "svc", "increment", timeout=3.0
                    )
                    results[tag].append(result.value)
            return scenario()

        proc_a = bed.sim.process(caller(client_a, "a", 6), name="a")
        proc_b = bed.sim.process(caller(client_b, "b", 6), name="b")
        bed.run(2.0)
        assert proc_a.triggered and proc_b.triggered
        merged = sorted(results["a"] + results["b"])
        # Twelve increments, each applied exactly once, in one order.
        assert merged == list(range(1, 13))
        # Each client saw strictly increasing counter values.
        assert results["a"] == sorted(results["a"])
        assert results["b"] == sorted(results["b"])

    def test_concurrent_clients_with_cts_stay_monotone(self):
        bed = make_testbed(seed=265)
        bed.record()
        bed.deploy("svc", ClockApp, ["n1", "n2", "n3"], time_source="cts")
        client_a = bed.client("n0", "client-a")
        client_b = bed.client("n2", "client-b")
        bed.start()

        stamps = []

        def caller(client, n):
            def scenario():
                for _ in range(n):
                    result, _ = yield from client.timed_call(
                        "svc", "get_time", timeout=3.0
                    )
                    stamps.append(result.value)
            return scenario()

        proc_a = bed.sim.process(caller(client_a, 5), name="a")
        proc_b = bed.sim.process(caller(client_b, 5), name="b")
        bed.run(2.0)
        assert proc_a.triggered and proc_b.triggered
        assert len(stamps) == 10
        # The group clock hands out unique, replica-consistent values.
        assert len(set(stamps)) == 10
        bed.run(0.1)
        readings = [
            tuple(v.micros for _, _, _, v in r.time_source.recorder.readings)[-10:]
            for r in bed.replicas("svc").values()
        ]
        assert readings[0] == readings[1] == readings[2]
