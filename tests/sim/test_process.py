"""Unit tests for the Store coordination primitive."""

import pytest

from repro.sim import Simulator
from repro.sim.process import Store


@pytest.fixture
def sim():
    return Simulator()


class TestStore:
    def test_put_then_get(self, sim):
        store = Store(sim)
        store.put("a")

        def proc():
            item = yield store.get()
            return item

        assert sim.run_process(proc()) == "a"

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)

        def producer():
            yield sim.timeout(2.0)
            store.put("late")

        def consumer():
            item = yield store.get()
            return (item, sim.now)

        sim.process(producer())
        assert sim.run_process(consumer()) == ("late", 2.0)

    def test_fifo_ordering_of_items(self, sim):
        store = Store(sim)
        for i in range(5):
            store.put(i)

        def consumer():
            got = []
            for _ in range(5):
                got.append((yield store.get()))
            return got

        assert sim.run_process(consumer()) == [0, 1, 2, 3, 4]

    def test_fifo_ordering_of_getters(self, sim):
        store = Store(sim)
        order = []

        def consumer(tag):
            item = yield store.get()
            order.append((tag, item))

        sim.process(consumer("first"))
        sim.process(consumer("second"))
        sim.run(until=1.0)
        store.put("x")
        store.put("y")
        sim.run()
        assert order == [("first", "x"), ("second", "y")]

    def test_len_and_peek_and_clear(self, sim):
        store = Store(sim)
        store.put(1)
        store.put(2)
        assert len(store) == 2
        assert store.peek() == 1
        assert store.clear() == [1, 2]
        assert len(store) == 0

