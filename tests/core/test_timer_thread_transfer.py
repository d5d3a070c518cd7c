"""State transfer with multiple logical threads: a joiner's timer thread
must align its CCS rounds with the group's, via the transferred
per-thread round counters."""

import pytest

from repro import Application

from support import call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


class TimerCounterApp(Application):
    def __init__(self):
        self.count = 0
        self.timer_stamps = []

    def bump(self, ctx):
        yield ctx.compute(15e-6)
        self.count += 1
        return self.count

    def timer_body(self, ticks):
        def body(ctx):
            for _ in range(ticks):
                yield ctx.sleep(0.02)
                value = yield ctx.gettimeofday()
                self.timer_stamps.append(value.micros)

        return body

    def get_state(self):
        return {"count": self.count, "stamps": list(self.timer_stamps)}

    def set_state(self, state):
        self.count = state["count"]
        self.timer_stamps = list(state["stamps"])


class TestTimerThreadTransfer:
    def test_joiner_timer_thread_aligns_rounds(self):
        bed = make_testbed(seed=270, epoch_spread_s=30.0)
        bed.deploy("svc", TimerCounterApp, ["n1", "n2"], time_source="cts")
        client = bed.client("n0")
        bed.start()
        # Existing members run timer threads (same creation order).
        for replica in bed.replicas("svc").values():
            replica.create_thread("timer", replica.app.timer_body(1000))
        bed.run(0.1)  # a few timer rounds happen
        call_n(bed, client, "svc", "bump", 2)

        joiner = bed.add_replica("svc", "n3", TimerCounterApp,
                                 time_source="cts")
        bed.run(0.5)
        assert joiner.state_transfer.ready
        # The transferred state carried the timer thread's position into
        # the joiner's handler for it.
        veteran = bed.replicas("svc")["n1"].time_source
        timer_thread = next(
            t for t in veteran._handlers if t.endswith(":timer")
        )
        transferred = joiner.time_source._handlers[timer_thread]
        assert transferred.my_round_number > 0
        # Start the joiner's timer thread: it continues from the group's
        # round position and produces identical subsequent stamps.
        joiner.create_thread("timer", joiner.app.timer_body(1000))
        bed.run(0.2)
        joiner_tail = joiner.app.timer_stamps
        veteran_stamps = bed.replicas("svc")["n1"].app.timer_stamps
        # The joiner inherited the pre-join stamps via app state, then
        # appended the same post-join stamps the veterans computed.
        assert joiner_tail == veteran_stamps[: len(joiner_tail)] or \
            joiner_tail[-3:] == veteran_stamps[-3:]

    def test_timer_stamps_strictly_monotone_across_join(self):
        bed = make_testbed(seed=271, epoch_spread_s=30.0)
        bed.deploy("svc", TimerCounterApp, ["n1", "n2"], time_source="cts")
        bed.start()
        for replica in bed.replicas("svc").values():
            replica.create_thread("timer", replica.app.timer_body(1000))
        bed.run(0.1)
        joiner = bed.add_replica("svc", "n3", TimerCounterApp,
                                 time_source="cts")
        bed.run(0.5)
        joiner.create_thread("timer", joiner.app.timer_body(1000))
        bed.run(0.3)
        stamps = bed.replicas("svc")["n1"].app.timer_stamps
        assert len(stamps) > 10
        assert all(b > a for a, b in zip(stamps, stamps[1:]))
