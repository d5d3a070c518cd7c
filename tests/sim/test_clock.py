"""Unit tests for ClockValue and HardwareClock."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.sim import ClockValue, HardwareClock, Simulator, US_PER_SEC


@pytest.fixture
def sim():
    return Simulator()


class TestClockValue:
    def test_timeval_components(self):
        value = ClockValue(3_500_123)
        assert value.seconds == 3
        assert value.microseconds == 500_123

    def test_add_offset(self):
        assert (ClockValue(100) + 50).micros == 150
        assert (50 + ClockValue(100)).micros == 150

    def test_subtract_clockvalue_gives_int(self):
        delta = ClockValue(150) - ClockValue(100)
        assert isinstance(delta, int)
        assert delta == 50

    def test_subtract_int_gives_clockvalue(self):
        value = ClockValue(150) - 100
        assert isinstance(value, ClockValue)
        assert value.micros == 50

    def test_ordering(self):
        assert ClockValue(1) < ClockValue(2)
        assert ClockValue(2) >= ClockValue(2)

    def test_requires_int(self):
        with pytest.raises(TypeError):
            ClockValue(1.5)

    @given(st.integers(min_value=0, max_value=2**50), st.integers(-10**9, 10**9))
    def test_offset_roundtrip(self, micros, offset):
        value = ClockValue(micros)
        assert (value + offset) - value == offset


class TestHardwareClock:
    def test_reading_advances_with_time(self, sim):
        clock = HardwareClock(sim)
        first = clock.read_us()
        sim.run(until=1.0)
        assert clock.read_us() == first + US_PER_SEC

    def test_epoch_offset(self, sim):
        clock = HardwareClock(sim, epoch_us=5_000_000)
        assert clock.read_us() == 5_000_000

    def test_drift_rate(self, sim):
        fast = HardwareClock(sim, drift_ppm=100.0)
        sim.run(until=10.0)
        # +100 ppm over 10 s = +1000 us.
        assert fast.read_us() == 10 * US_PER_SEC + 1000

    def test_negative_drift(self, sim):
        slow = HardwareClock(sim, drift_ppm=-100.0)
        sim.run(until=10.0)
        assert slow.read_us() == 10 * US_PER_SEC - 1000

    def test_granularity_quantizes(self, sim):
        clock = HardwareClock(sim, granularity_us=1000)
        sim.run(until=0.0123456)
        assert clock.read_us() % 1000 == 0

    def test_monotone_raw_reads(self, sim):
        clock = HardwareClock(sim, drift_ppm=-200.0, granularity_us=7)
        last = clock.raw_us()
        for step in range(1, 200):
            sim.run(until=step * 0.000123)
            current = clock.raw_us()
            assert current >= last
            last = current

    def test_step_adjusts_disciplined_reading(self, sim):
        clock = HardwareClock(sim)
        sim.run(until=1.0)
        clock.step(-500)
        assert clock.read_us() == US_PER_SEC - 500
        assert clock.raw_us() == US_PER_SEC  # raw unaffected

    def test_true_offset(self, sim):
        clock = HardwareClock(sim, epoch_us=250)
        assert clock.true_offset_us() == 250

    def test_invalid_granularity_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            HardwareClock(sim, granularity_us=0)

    def test_invalid_drift_rejected(self, sim):
        with pytest.raises(ConfigurationError):
            HardwareClock(sim, drift_ppm=-2e6)

    @settings(max_examples=50)
    @given(
        drift=st.floats(min_value=-500.0, max_value=500.0),
        granularity=st.integers(min_value=1, max_value=10_000),
        times=st.lists(st.floats(min_value=0, max_value=100.0), min_size=2, max_size=20),
    )
    def test_property_monotone_under_any_drift(self, drift, granularity, times):
        sim = Simulator()
        clock = HardwareClock(sim, drift_ppm=drift, granularity_us=granularity)
        readings = []
        for t in sorted(times):
            sim.run(until=t)
            readings.append(clock.read_us())
        assert readings == sorted(readings)
