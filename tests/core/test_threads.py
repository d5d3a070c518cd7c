"""Multi-threaded replicas: per-thread CCS handlers (paper Section 3.1).

"There is one handler object for each thread"; CCS messages carry the
sending thread identifier and are matched to the corresponding handler,
with early arrivals for not-yet-created threads parked in the common
input buffer.
"""

import pytest

from repro import Application

from support import call_n, make_testbed  # noqa: E402 (tests/ on sys.path via conftest)


class TimerApp(Application):
    """Main thread serves requests; a timer thread also reads the clock."""

    def __init__(self):
        self.timer_readings = []

    def get_time(self, ctx):
        yield ctx.compute(20e-6)
        value = yield ctx.gettimeofday()
        return value.micros

    def timer_body(self, ctx, ticks=5):
        def body(tctx):
            for _ in range(ticks):
                yield tctx.sleep(0.02)
                value = yield tctx.gettimeofday()
                self.timer_readings.append(value.micros)

        return body


def deploy_with_timers(seed, ticks=5):
    bed = make_testbed(seed=seed)
    bed.record()
    bed.deploy("svc", TimerApp, ["n1", "n2", "n3"], time_source="cts")
    client = bed.client("n0")
    bed.start()
    # Start the timer thread at every replica, in the same order.
    for replica in bed.replicas("svc").values():
        app = replica.app
        replica.create_thread("timer", app.timer_body(None, ticks))
    return bed, client


class TestTimerThreads:
    def test_timer_readings_consistent_across_replicas(self):
        bed, client = deploy_with_timers(seed=140)
        bed.run(0.2)  # 5 ticks at 20 ms
        readings = [
            tuple(r.app.timer_readings) for r in bed.replicas("svc").values()
        ]
        assert len(readings[0]) == 5
        assert readings[0] == readings[1] == readings[2]

    def test_timer_and_main_threads_use_separate_handlers(self):
        bed, client = deploy_with_timers(seed=141)
        call_n(bed, client, "svc", "get_time", 3)
        bed.run(0.2)
        service = bed.replicas("svc")["n1"].time_source
        thread_ids = set(service._handlers)
        timer_threads = {t for t in thread_ids if t.endswith(":timer")}
        main_threads = {t for t in thread_ids if t.endswith(":main")}
        assert len(timer_threads) == 1
        assert len(main_threads) == 1

    def test_interleaved_threads_all_monotone_per_thread(self):
        bed, client = deploy_with_timers(seed=142)
        values = call_n(bed, client, "svc", "get_time", 4)
        bed.run(0.2)
        app = bed.replicas("svc")["n1"].app
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(
            b > a for a, b in zip(app.timer_readings, app.timer_readings[1:])
        )

    def test_global_monotonicity_across_threads(self):
        """Values from different threads interleave but the group clock
        as a whole never steps back (strict monotonic floor)."""
        bed, client = deploy_with_timers(seed=143)
        call_n(bed, client, "svc", "get_time", 4)
        bed.run(0.2)
        service = bed.replicas("svc")["n1"].time_source
        in_order = [v.micros for _, _, _, v in service.recorder.readings]
        assert all(b > a for a, b in zip(in_order, in_order[1:]))

    def test_thread_ids_deterministic_across_replicas(self):
        bed, client = deploy_with_timers(seed=144)
        bed.run(0.1)
        id_sets = [
            tuple(r.threads.thread_ids) for r in bed.replicas("svc").values()
        ]
        assert id_sets[0] == id_sets[1] == id_sets[2]
        assert id_sets[0][0].endswith(":main")
        assert id_sets[0][1].endswith(":timer")


class TestCommonInputBuffer:
    def test_early_ccs_parked_until_thread_exists(self):
        """A slow replica receives CCS messages for a thread it has not
        created yet; they wait in the handler made on first sight of the
        thread id (the paper's common input buffer, Figure 3 line 4) and
        are consumed when the thread's first operation runs."""
        bed, client = deploy_with_timers(seed=145)
        # Skip creating the timer thread at n3 initially; n1/n2's timer
        # rounds will arrive at n3 with no matching handler.
        bed2 = make_testbed(seed=146)
        bed2.deploy("svc", TimerApp, ["n1", "n2", "n3"], time_source="cts")
        client2 = bed2.client("n0")
        bed2.start()
        replicas = bed2.replicas("svc")
        for node_id in ("n1", "n2"):
            replica = replicas[node_id]
            replica.create_thread("timer", replica.app.timer_body(None, 3))
        bed2.run(0.05)
        slow = replicas["n3"]
        parked = [
            m.thread_id for handler in slow.time_source._handlers.values()
            for m in handler.my_input_buffer
        ]
        assert parked and all(t.endswith(":timer") for t in parked)
        # Now create the thread at n3: it drains the parked rounds and
        # produces the same readings as the others.
        slow.create_thread("timer", slow.app.timer_body(None, 3))
        bed2.run(0.3)
        readings = [tuple(r.app.timer_readings) for r in replicas.values()]
        assert readings[0] == readings[1] == readings[2]
