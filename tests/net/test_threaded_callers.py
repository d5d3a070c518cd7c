"""ThreadedCallers against stub callers: no sockets, no bed.

The loop must treat a typed ``Overloaded`` reply as *shed*, not as an
error, and honour its retry-after hint before calling again — a shed
client that hot-loops defeats the admission control that shed it.
"""

import threading
import time

from repro.control.admission import OVERLOADED, overloaded_value
from repro.errors import RpcTimeout
from repro.net.client import CallerStats, CallOutcome, ThreadedCallers
from repro.rpc.messages import Result


class StubCaller:
    """Plays back a script of replies, then times out; records when and
    with which session floor it was called."""

    def __init__(self, client_id, script):
        self.client_id = client_id
        self.stats = CallerStats()
        self.script = list(script)
        self.calls = []  # (monotonic instant, after_us argument)
        self.exhausted = threading.Event()
        self.closed = False

    def call(self, method, after_us, *, timeout):
        self.calls.append((time.monotonic(), after_us))
        if not self.script:
            self.exhausted.set()
            time.sleep(0.005)
            raise RpcTimeout("script exhausted")
        outcome = CallOutcome(method, {"n0": self.script.pop(0)},
                              latency_us=10, via=("127.0.0.1", 1))
        return outcome

    def close(self):
        self.closed = True


def served(micros):
    return Result(value={"micros": micros})


def shed(retry_after_s):
    return Result(value=overloaded_value(retry_after_s), error=OVERLOADED)


def run_script(script, **options):
    caller = StubCaller("stub0", script)
    callers = ThreadedCallers([caller], **options)
    callers.start()
    assert caller.exhausted.wait(timeout=2.0)
    callers.stop()
    callers.join()
    assert not any(thread.is_alive() for thread in callers._threads)
    return caller, callers.report()


class TestShedBackoff:
    def test_shed_client_sleeps_the_retry_after_hint(self):
        hint_s = 0.06
        caller, report = run_script([shed(hint_s), served(1_000)])
        first, second = caller.calls[0][0], caller.calls[1][0]
        assert second - first >= hint_s
        assert report["shed"] == 1
        assert report["served"] == 1
        # Overloaded is back-pressure, not a failure of the service.
        assert report["errors"] == report["calls"] - 2
        assert caller.closed

    def test_stop_interrupts_a_long_backoff(self):
        caller = StubCaller("stub0", [shed(30.0)])
        callers = ThreadedCallers([caller])
        callers.start()
        deadline = time.monotonic() + 2.0
        while not caller.calls and time.monotonic() < deadline:
            time.sleep(0.005)
        started = time.monotonic()
        callers.stop()
        callers.join()
        assert time.monotonic() - started < 1.0
        assert callers.report()["shed"] == 1


class TestTallies:
    def test_floor_rides_the_served_values_and_replies_reach_the_hook(self):
        seen = []
        caller, report = run_script(
            [served(100), Result(error="boom"), served(200)],
            on_reply=lambda client_id, value_us, started, finished, outcome:
                seen.append((client_id, value_us, finished >= started)))
        assert [floor for _, floor in caller.calls[:4]] == [
            None, 100, 100, 200]
        assert seen == [("stub0", 100, True), ("stub0", 200, True)]
        assert (report["served"], report["shed"]) == (2, 0)
        assert report["errors"] == report["calls"] - 2
        assert report["count"] == 1
        assert 0 < report["error_rate"] < 1
