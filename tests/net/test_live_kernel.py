"""LiveKernel: the simulator's event API on an asyncio loop."""

import socket

import pytest

from repro.errors import SimulationError
from repro.net.kernel import LiveKernel
from repro.sim.kernel import Event


@pytest.fixture
def kernel():
    k = LiveKernel()
    yield k
    k.close()


class TestClock:
    def test_now_starts_near_zero(self, kernel):
        assert 0.0 <= kernel.now < 0.1

    def test_now_advances_with_real_time(self, kernel):
        before = kernel.now
        kernel.run(until=kernel.now + 0.03)
        assert kernel.now - before >= 0.03


class TestScheduling:
    def test_schedule_fires_callback(self, kernel):
        fired = []
        kernel.schedule(0.01, lambda: fired.append(kernel.now))
        kernel.run(until=kernel.now + 0.05)
        assert len(fired) == 1
        assert fired[0] >= 0.01

    def test_schedule_ordering_preserved(self, kernel):
        order = []
        kernel.schedule(0.03, lambda: order.append("late"))
        kernel.schedule(0.01, lambda: order.append("early"))
        kernel.run(until=kernel.now + 0.06)
        assert order == ["early", "late"]

    def test_zero_delay_wakes_run_in_issue_order(self, kernel):
        # schedule(0), call_soon and succeed() are FIFO among themselves,
        # like the sim heap's same-time tie-break — whichever loop queue
        # carries them (ROADMAP 2(e) wants them on ``loop.call_soon``).
        order = []
        event = Event(kernel)
        event._add_callback(lambda _event: order.append("event"))
        kernel.schedule(0, order.append, "scheduled")
        event.succeed()
        kernel.call_soon(order.append, "soon")
        kernel.schedule(0.0, order.append, "scheduled again")
        kernel.run(until=kernel.now + 0.02)
        assert order == ["scheduled", "event", "soon", "scheduled again"]

    def test_zero_delay_wake_runs_before_an_earlier_timer_comes_due(self, kernel):
        order = []
        kernel.schedule(0.005, order.append, "timer")
        kernel.schedule(0, order.append, "wake")
        kernel.run(until=kernel.now + 0.03)
        assert order == ["wake", "timer"]

    def test_zero_delay_callback_can_be_cancelled(self, kernel):
        fired = []
        kernel.cancel(kernel.schedule(0, fired.append, "callback"))
        kernel.run(until=kernel.now + 0.01)
        assert fired == []

    def test_zero_delay_wake_skips_the_timer_heap_and_beats_the_next_reads(
            self, kernel):
        """A ``schedule(0)`` / ``succeed()`` issued inside a loop pass
        joins the ready queue: nothing is pushed on the loop's timer
        heap, and it runs before the next pass's socket callbacks.  (As
        a ``call_later(0)`` it was moved to the ready queue only after
        them.)"""
        order, timers = [], []
        ours, theirs = socket.socketpair()
        event = Event(kernel)
        event._add_callback(lambda _event: order.append("event"))

        def inside_a_pass():
            before = len(kernel.loop._scheduled)
            kernel.schedule(0, order.append, "scheduled")
            event.succeed()
            timers.append(len(kernel.loop._scheduled) - before)
            # Readable by the time the next pass polls its selector.
            theirs.send(b"x")
            kernel.cancel(kernel.schedule(0, order.append, "cancelled"))

        def on_readable():
            kernel.loop.remove_reader(ours)
            order.append("read")

        try:
            kernel.loop.add_reader(ours, on_readable)
            kernel.loop.call_soon(inside_a_pass)
            kernel.run(until=kernel.now + 0.03)
        finally:
            ours.close()
            theirs.close()
        assert timers == [0]
        assert order == ["scheduled", "event", "read"]

    def test_timeout_event_succeeds(self, kernel):
        results = []
        kernel.timeout(0.01, value="done")._add_callback(
            lambda event: results.append(event._value))
        kernel.run(until=kernel.now + 0.05)
        assert results == ["done"]


    def test_cancel_prevents_callback(self, kernel):
        fired = []
        kernel.cancel(kernel.schedule(0.01, fired.append, "callback"))
        timeout = kernel.timeout(0.01)
        timeout._add_callback(fired.append)
        kernel.cancel(timeout)
        kernel.run(until=kernel.now + 0.04)
        assert fired == []

    def test_negative_delay_rejected(self, kernel):
        with pytest.raises(SimulationError):
            kernel.schedule(-0.01, lambda: None)


class TestDeadline:
    @pytest.fixture
    def call_laters(self, kernel):
        """Every ``loop.call_later`` made while the test runs."""
        calls = []
        call_later = kernel.loop.call_later

        def counting(delay, callback, *args):
            calls.append(callback)
            return call_later(delay, callback, *args)

        kernel.loop.call_later = counting
        return calls

    def test_many_resets_one_pending_timer_one_firing(self, kernel,
                                                      call_laters):
        fired = []
        timer = kernel.deadline(lambda: fired.append(kernel.now))
        last_reset = 0.0
        for _ in range(500):
            last_reset = kernel.now
            timer.reset(0.03)
        assert len(call_laters) == 1
        # Move it once more a little later: still nothing new queued.
        kernel.run(until=kernel.now + 0.01)
        moved_at = kernel.now
        timer.reset(0.03)
        before = len(call_laters)
        kernel.run(until=kernel.now + 0.08)
        assert len(fired) == 1
        assert fired[0] >= moved_at + 0.03 > last_reset + 0.03
        assert not timer.armed
        # The pending entry fired early once and re-armed for the rest
        # (the run() sleeps are the only other call_laters).
        rearms = [cb for cb in call_laters[before:] if cb == timer._expire]
        assert len(rearms) == 1

    def test_clear_disarms(self, kernel):
        fired = []
        timer = kernel.deadline(lambda: fired.append(kernel.now))
        timer.reset(0.01)
        timer.clear()
        assert not timer.armed
        kernel.run(until=kernel.now + 0.03)
        assert fired == []

    def test_reset_to_an_earlier_time_fires_early_and_once(self, kernel):
        fired = []
        timer = kernel.deadline(lambda: fired.append(kernel.now))
        timer.reset(5.0)
        timer.reset(0.01)
        kernel.run(until=kernel.now + 0.05)
        assert len(fired) == 1 and fired[0] < 1.0


class TestRun:
    def test_run_requires_until(self, kernel):
        with pytest.raises(SimulationError, match="explicit 'until'"):
            kernel.run()

    def test_run_rejects_max_events(self, kernel):
        with pytest.raises(SimulationError, match="max_events"):
            kernel.run(until=kernel.now + 0.01, max_events=10)

    def test_run_past_until_is_noop(self, kernel):
        kernel.run(until=kernel.now - 5.0)  # already in the past


class TestProcesses:
    def test_run_process_returns_value(self, kernel):
        def proc():
            yield kernel.timeout(0.01)
            return 42

        assert kernel.run_process(proc(), name="answer") == 42

    def test_run_process_propagates_failure(self, kernel):
        def proc():
            yield kernel.timeout(0.005)
            raise RuntimeError("scenario went wrong")

        with pytest.raises(RuntimeError, match="scenario went wrong"):
            kernel.run_process(proc())

    def test_run_process_timeout(self, kernel):
        def proc():
            yield Event(kernel)  # never triggered

        with pytest.raises(SimulationError, match="did not finish"):
            kernel.run_process(proc(), name="stuck", timeout=0.05)


class TestFailures:
    def test_unheeded_failure_raised_at_run_boundary(self, kernel):
        def proc():
            yield kernel.timeout(0.005)
            raise ValueError("nobody is watching")

        kernel.process(proc(), name="orphan")
        with pytest.raises(ValueError, match="nobody is watching"):
            kernel.run(until=kernel.now + 0.05)

    def test_drain_failures_clears_backlog(self, kernel):
        def proc():
            yield kernel.timeout(0.005)
            raise ValueError("drained instead")

        kernel.process(proc(), name="orphan")
        # Drive the loop directly, daemon-style, then drain.
        kernel.loop.run_until_complete(__import__("asyncio").sleep(0.05))
        failures = kernel.drain_failures()
        assert [type(f) for f in failures] == [ValueError]
        kernel.run(until=kernel.now + 0.01)  # nothing left to raise


class TestLifecycle:
    def test_close_is_idempotent(self):
        kernel = LiveKernel()
        kernel.close()
        kernel.close()
        assert kernel.loop.is_closed()
