"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.errors import ProcessKilled, SimulationError
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestClockAndScheduling:
    def test_time_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_runs_callback_at_delay(self, sim):
        fired = []
        sim.schedule(1.5, fired.append, "a")
        sim.run()
        assert fired == ["a"]
        assert sim.now == 1.5

    def test_callbacks_fire_in_time_order(self, sim):
        order = []
        sim.schedule(2.0, order.append, "late")
        sim.schedule(1.0, order.append, "early")
        sim.run()
        assert order == ["early", "late"]

    def test_same_time_callbacks_fire_fifo(self, sim):
        order = []
        for i in range(10):
            sim.schedule(1.0, order.append, i)
        sim.run()
        assert order == list(range(10))

    def test_run_until_stops_before_future_events(self, sim):
        fired = []
        sim.schedule(5.0, fired.append, "x")
        sim.run(until=2.0)
        assert fired == []
        assert sim.now == 2.0
        sim.run()
        assert fired == ["x"]

    def test_cancel_prevents_callback(self, sim):
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        sim.cancel(handle)
        sim.run()
        assert fired == []

    def test_cancel_skips_an_events_callbacks(self, sim):
        fired = []
        timeout = sim.timeout(1.0)
        timeout._add_callback(fired.append)
        sim.cancel(timeout)
        sim.run()
        assert fired == [] and sim.now == 1.0

    def test_schedule_handle_is_not_an_event(self, sim):
        # schedule() queues a bare callback; waiting needs timeout().
        def proc():
            yield sim.schedule(1.0, lambda: None)

        with pytest.raises(SimulationError, match="non-event"):
            sim.run_process(proc())

    def test_negative_schedule_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_max_events_bounds_a_run(self, sim):
        fired = []
        for i in range(5):
            sim.schedule(1.0 + i, fired.append, i)
        sim.run(max_events=2)
        assert fired == [0, 1] and sim.now == 2.0
        sim.run(until=3.5)
        assert fired == [0, 1, 2] and sim.now == 3.5

    def test_call_soon_runs_at_current_time(self, sim):
        seen = []
        sim.schedule(3.0, lambda: sim.call_soon(lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [3.0]

    def test_negative_timeout_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)


class TestEvents:
    def test_event_lifecycle(self, sim):
        ev = sim.event()
        assert not ev.triggered
        ev.succeed(42)
        assert ev.triggered
        assert ev.ok
        assert ev.value == 42

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(SimulationError):
            _ = ev.value


class TestProcesses:
    def test_process_sequential_timeouts(self, sim):
        trace = []

        def proc():
            trace.append(sim.now)
            yield sim.timeout(1.0)
            trace.append(sim.now)
            yield sim.timeout(2.0)
            trace.append(sim.now)

        sim.process(proc())
        sim.run()
        assert trace == [0.0, 1.0, 3.0]

    def test_process_return_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "done"

        assert sim.run_process(proc()) == "done"

    def test_process_receives_event_value(self, sim):
        ev = sim.event()

        def producer():
            yield sim.timeout(1.0)
            ev.succeed("payload")

        def consumer():
            value = yield ev
            return value

        sim.process(producer())
        assert sim.run_process(consumer()) == "payload"

    def test_process_waits_for_process(self, sim):
        def inner():
            yield sim.timeout(2.0)
            return 7

        def outer():
            value = yield sim.process(inner())
            return value * 2

        assert sim.run_process(outer()) == 14

    def test_failed_event_raises_in_waiter(self, sim):
        ev = sim.event()

        def failer():
            yield sim.timeout(1.0)
            ev.fail(ValueError("boom"))

        def waiter():
            try:
                yield ev
            except ValueError as exc:
                return f"caught {exc}"

        sim.process(failer())
        assert sim.run_process(waiter()) == "caught boom"

    def test_uncaught_process_exception_propagates(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise RuntimeError("inner failure")

        with pytest.raises(RuntimeError, match="inner failure"):
            sim.run_process(proc())

    def test_yielding_non_event_fails_process(self, sim):
        def proc():
            yield 42

        with pytest.raises(SimulationError, match="non-event"):
            sim.run_process(proc())

    def test_deadlock_detected(self, sim):
        def proc():
            yield sim.event()  # never triggered

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(proc())


class TestInterruptAndKill:
    def test_kill_stops_process(self, sim):
        trace = []

        def proc():
            yield sim.timeout(1.0)
            trace.append("should not happen")

        p = sim.process(proc())
        sim.run(until=0.5)
        p.kill()
        sim.run()
        assert trace == []
        assert not p.is_alive

    def test_waiter_on_killed_process_sees_failure(self, sim):
        def victim():
            yield sim.timeout(100.0)

        v = sim.process(victim())

        def waiter():
            try:
                yield v
            except ProcessKilled:
                return "observed kill"

        sim.schedule(1.0, v.kill)
        assert sim.run_process(waiter()) == "observed kill"


class TestRunLimits:
    def test_max_events_bounds_execution(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), fired.append, i)
        sim.run(max_events=3)
        assert len(fired) == 3

    def test_run_returns_final_time(self):
        sim = Simulator()
        sim.schedule(2.5, lambda: None)
        assert sim.run() == 2.5

    def test_run_until_advances_clock_even_when_idle(self):
        sim = Simulator()
        sim.run(until=7.0)
        assert sim.now == 7.0
