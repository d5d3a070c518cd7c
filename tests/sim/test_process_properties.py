"""Property-based tests for the Store coordination primitive."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from repro.sim.process import Store


class TestStoreProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        script=st.lists(
            st.one_of(
                st.tuples(st.just("put"), st.integers(0, 999)),
                st.tuples(st.just("get"), st.just(0)),
            ),
            min_size=1,
            max_size=60,
        )
    )
    def test_fifo_under_any_schedule(self, script):
        """Whatever the interleaving of puts and (blocking) gets, items
        come out in exactly the order they went in."""
        sim = Simulator()
        store = Store(sim)
        put_order = []
        got = []
        puts = [item for op, item in script if op == "put"]
        gets = sum(1 for op, _ in script if op == "get")
        taken = min(len(puts), gets)

        def consumer(count):
            for _ in range(count):
                item = yield store.get()
                got.append(item)

        sim.process(consumer(taken))
        delay = 0.0
        for op, item in script:
            if op == "put":
                delay += 0.001
                def do_put(value=item):
                    put_order.append(value)
                    store.put(value)
                sim.schedule(delay, do_put)
        sim.run()
        assert got == put_order[:taken]

    @settings(max_examples=30, deadline=None)
    @given(waiters=st.integers(min_value=1, max_value=10))
    def test_getters_served_fifo(self, waiters):
        sim = Simulator()
        store = Store(sim)
        served = []

        def consumer(tag, start):
            yield sim.timeout(start)
            item = yield store.get()
            served.append((tag, item))

        for i in range(waiters):
            sim.process(consumer(i, i * 0.01))
        sim.schedule(1.0, lambda: [store.put(i) for i in range(waiters)])
        sim.run()
        assert served == [(i, i) for i in range(waiters)]

