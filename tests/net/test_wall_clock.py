"""A live node's clock: the simulated hardware clock over a real time base.

:class:`~repro.sim.clock.HardwareClock` reads only ``.now`` of what it
is built on, so over a :class:`~repro.net.kernel.LiveKernel` it moves
with the wall while its epoch, drift and granularity still apply.
"""

import time

import pytest

from repro.errors import ConfigurationError
from repro.net.kernel import LiveKernel
from repro.sim.clock import US_PER_SEC, HardwareClock


class FakeTimeBase:
    """A controllable stand-in for the monotonic clock."""

    def __init__(self):
        self.now = 0.0


@pytest.fixture
def kernel():
    kernel = LiveKernel()
    yield kernel
    kernel.close()


class TestWithFakeBase:
    def test_epoch_offset_applied(self):
        clock = HardwareClock(FakeTimeBase(), epoch_us=5_000_000)
        assert clock.read_us() == 5_000_000

    def test_advances_with_base(self):
        base = FakeTimeBase()
        clock = HardwareClock(base)
        base.now = 2.5
        assert clock.read_us() == int(2.5 * US_PER_SEC)

    def test_drift_rate_applied(self):
        base = FakeTimeBase()
        clock = HardwareClock(base, drift_ppm=100.0)
        base.now = 100.0
        # +100 ppm over 100 s = +10 ms.
        assert clock.read_us() == 100 * US_PER_SEC + 10_000

    def test_granularity_quantizes(self):
        base = FakeTimeBase()
        clock = HardwareClock(base, granularity_us=1000)
        base.now = 0.0123456
        assert clock.read_us() % 1000 == 0

    def test_bad_granularity_rejected(self):
        with pytest.raises(ConfigurationError):
            HardwareClock(FakeTimeBase(), granularity_us=0)


class TestRealTime:
    def test_clock_advances_in_real_time(self, kernel):
        clock = HardwareClock(kernel)
        first = clock.read_us()
        time.sleep(0.02)
        second = clock.read_us()
        assert second - first >= 20_000
        assert second - first < 2_000_000  # sanity: not wildly off

    def test_readings_never_regress(self, kernel):
        clock = HardwareClock(kernel, drift_ppm=-200.0)
        readings = [clock.read_us() for _ in range(200)]
        assert all(b >= a for a, b in zip(readings, readings[1:]))

    def test_kernel_time_base_shares_zero(self, kernel):
        clock = HardwareClock(kernel)
        # Both started "now"; the clock reading should be close to
        # kernel-elapsed time (no epoch injected).
        assert abs(clock.read_us() - kernel.now * US_PER_SEC) < 50_000
