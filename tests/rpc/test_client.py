"""Tests for the RPC client: calls, replies, dedup, timeouts."""

import pytest

from repro.errors import RpcTimeout
from repro.rpc import Invocation, Result, unwrap

from support import CounterApp, call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


class TestMessages:
    def test_invocation_repr(self):
        inv = Invocation("get_time", (1, "x"))
        assert "get_time" in str(inv)

    def test_result_ok(self):
        assert Result(value=42).ok
        assert not Result(error="Boom").ok

    def test_unwrap_value(self):
        assert unwrap(Result(value=7)) == 7

    def test_unwrap_error_raises(self):
        with pytest.raises(RuntimeError, match="Boom"):
            unwrap(Result(error="Boom"))


class TestCalls:
    def test_basic_call(self):
        bed = make_testbed(seed=30)
        bed.deploy("svc", CounterApp, ["n1", "n2"], time_source="local")
        client = bed.client("n0")
        bed.start()
        assert call_n(bed, client, "svc", "increment", 1) == [1]

    def test_sequential_calls_get_sequence_numbers(self):
        bed = make_testbed(seed=31)
        bed.deploy("svc", CounterApp, ["n1"], time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "increment", 3)
        assert client.stats.calls == 3
        assert client.stats.replies_first == 3

    def test_duplicate_replies_counted_not_delivered(self):
        bed = make_testbed(seed=32)
        bed.deploy("svc", CounterApp, ["n1", "n2", "n3"], time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "increment", 2)
        bed.run(0.1)
        assert client.stats.replies_first == 2
        assert client.stats.replies_duplicate == 4

    def test_latency_measured_positive(self):
        bed = make_testbed(seed=33)
        bed.deploy("svc", CounterApp, ["n1", "n2"], time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "increment", 5)
        assert len(client.stats.latencies_us) == 5
        assert all(lat > 0 for lat in client.stats.latencies_us)

    def test_timeout_when_no_server(self):
        bed = make_testbed(seed=34)
        client = bed.client("n0")
        bed.start()

        def scenario():
            try:
                yield client.call("ghost-group", "anything", timeout=0.05)
            except RpcTimeout:
                return "timed out"
            return "unexpected reply"

        assert bed.run_process(scenario()) == "timed out"
        assert client.stats.timeouts == 1

    def test_two_clients_do_not_interfere(self):
        bed = make_testbed(seed=35)
        bed.deploy("svc", CounterApp, ["n1"], time_source="local")
        client_a = bed.client("n0", "client-a")
        client_b = bed.client("n2", "client-b")
        bed.start()

        def scenario():
            result_a = yield client_a.call("svc", "increment")
            result_b = yield client_b.call("svc", "increment")
            return (result_a.value, result_b.value)

        assert bed.run_process(scenario()) == (1, 2)

    def test_call_to_multiple_groups(self):
        bed = make_testbed(seed=36)
        bed.deploy("alpha", CounterApp, ["n1"], time_source="local")
        bed.deploy("beta", CounterApp, ["n2"], time_source="local")
        client = bed.client("n0")
        bed.start()

        def scenario():
            first = yield client.call("alpha", "increment")
            second = yield client.call("beta", "increment")
            return (first.value, second.value)

        # Separate groups have separate state.
        assert bed.run_process(scenario()) == (1, 1)


class TestTimeouts:
    """A client keeps one timer for all its calls, armed at the earliest
    expiry; each call still times out exactly ``timeout`` after issue."""

    def _bed(self):
        bed = make_testbed(seed=37)
        client = bed.client("n0")
        bed.start()
        return bed, client

    def test_each_call_times_out_exactly_its_timeout_after_issue(self):
        bed, client = self._bed()
        expected, observed = [], []

        def one(timeout):
            issued = bed.sim.now
            expected.append(issued + timeout)
            try:
                yield client.call("ghost-group", "anything", timeout=timeout)
            except RpcTimeout:
                observed.append(bed.sim.now)

        # Staggered issues; the 0.1 s and 0.03 s calls fall due before
        # the queue's tail, the 0.25 s ones after it.
        for delay, timeout in [(0.0, 0.25), (0.013, 0.25), (0.02, 0.1),
                               (0.021, 0.25), (0.3, 0.03), (0.31, 0.25)]:
            bed.sim.schedule(delay, lambda t=timeout: bed.sim.process(one(t)))
        bed.run(1.0)
        assert sorted(observed) == sorted(expected)
        assert client.stats.timeouts == 6

    def test_a_timeout_keeps_its_issue_order_at_its_instant(self):
        """Re-arming the timer for the next call must not move that call's
        timeout behind events scheduled for the same instant after it was
        issued: it fires where a timer of its own would have."""
        bed, client = self._bed()
        seen = []

        def waiter(event):
            try:
                yield event
            except RpcTimeout:
                pass

        def issue():
            for timeout in (0.1, 0.25):
                bed.sim.process(waiter(
                    client.call("ghost-group", "anything", timeout=timeout)))
            # Due with the 0.25 s call, scheduled after its issue but
            # before the 0.1 s head expires and the timer re-arms.
            bed.sim.schedule(0.25, lambda: seen.append(client.stats.timeouts))

        bed.sim.schedule(0.0, issue)
        bed.run(1.0)
        assert seen == [2]

    def test_answered_calls_leave_one_timer_queued(self):
        bed = make_testbed(seed=38)
        bed.deploy("svc", CounterApp, ["n1"], time_source="local")
        client = bed.client("n0")
        bed.start()
        call_n(bed, client, "svc", "increment", 20, timeout=0.25)
        mine = [entry for *_, entry in bed.sim._heap
                if entry is client._expiry
                or getattr(entry, "fn", None) == client._on_timeout]
        assert mine == [client._expiry]
        bed.run(0.5)
        assert not client._expiries and client.stats.timeouts == 0
