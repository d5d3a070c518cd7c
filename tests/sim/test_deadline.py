"""``Deadline`` fires exactly when the thing it replaced did.

Before the kernel had a reschedulable timer, every re-arm of a protocol
timer pushed a fresh generation-guarded callback and the stale ones
popped as no-ops.  That is the reference model here: any interleaving of
resets, clears and unrelated callbacks must produce the same firings, at
the same times and in the same order among same-time events, from both.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator
from repro.sim.kernel import Deadline

HANDLES = 3
#: Delays and gaps on a binary grid, so equal times are exactly equal
#: and ties (two events at one instant, two resets at one instant) are
#: common rather than impossible.
GRID = st.integers(0, 6).map(lambda n: n * 0.25)


class GenerationGuarded:
    """The replaced idiom: one ``schedule`` per reset, a generation
    counter to make the superseded ones no-ops."""

    def __init__(self, sim, fn):
        self.sim = sim
        self.fn = fn
        self.generation = 0

    def reset(self, delay):
        self.generation += 1
        self.sim.schedule(delay, self._fire, self.generation)

    def clear(self):
        self.generation += 1

    def _fire(self, generation):
        if generation == self.generation:
            self.fn()


OPS = st.one_of(
    st.tuples(st.just("reset"), st.integers(0, HANDLES - 1), GRID),
    st.tuples(st.just("clear"), st.integers(0, HANDLES - 1), st.just(0.0)),
    st.tuples(st.just("schedule"), st.integers(0, 99), GRID),
    st.tuples(st.just("advance"), st.just(0), GRID),
)


def play(make_timer, script, rearm, fixed_delays, check=None):
    """Run ``script`` against timers built by ``make_timer``; return the
    firings as ``(time, what)`` in the order they happened."""
    sim = Simulator()
    fired = []
    timers = []
    rearms_left = [3] * HANDLES

    def on_fire(index):
        fired.append((sim.now, f"timer-{index}"))
        if rearm[index] is not None and rearms_left[index]:
            rearms_left[index] -= 1  # periodic for a while, like a beacon
            timers[index].reset(rearm[index])

    for index in range(HANDLES):
        timers.append(make_timer(sim, lambda index=index: on_fire(index)))

    def apply(op, arg, delay):
        if op == "reset":
            timers[arg].reset(delay if fixed_delays is None
                              else fixed_delays[arg])
        elif op == "clear":
            timers[arg].clear()
        else:
            sim.schedule(delay, lambda: fired.append((sim.now, f"call-{arg}")))
        if check is not None:
            check(sim, timers)

    at = 0.0
    for op, arg, delay in script:
        if op == "advance":
            at += delay
        else:
            sim.schedule(at, apply, op, arg, delay)
    while sim._heap:
        sim.step()
        if check is not None:
            check(sim, timers)
    return fired


def at_most_one_entry_each(sim, timers):
    for timer in timers:
        assert sum(1 for entry in sim._heap if entry[3] is timer) <= 1


class TestDeadlineMatchesGenerationGuardedCallbacks:
    @settings(max_examples=300, deadline=None)
    @given(script=st.lists(OPS, min_size=1, max_size=40),
           rearm=st.lists(st.one_of(st.none(), GRID.filter(bool)),
                          min_size=HANDLES, max_size=HANDLES))
    def test_any_delays(self, script, rearm):
        expected = play(GenerationGuarded, script, rearm, None)
        assert play(Deadline, script, rearm, None) == expected

    @settings(max_examples=300, deadline=None)
    @given(script=st.lists(OPS, min_size=1, max_size=40),
           rearm=st.booleans(),
           delays=st.lists(GRID, min_size=HANDLES, max_size=HANDLES))
    def test_one_delay_per_timer_keeps_one_heap_entry(self, script, rearm,
                                                      delays):
        # How a protocol timer is used: always the same timeout, so the
        # deadline only ever moves later and the one queued entry does.
        periodic = [d or None if rearm else None for d in delays]
        expected = play(GenerationGuarded, script, periodic, delays)
        assert play(Deadline, script, periodic, delays,
                    check=at_most_one_entry_each) == expected


class TestDeadline:
    def test_fires_once_at_the_last_deadline(self):
        sim = Simulator()
        fired = []
        timer = sim.deadline(lambda: fired.append(sim.now))
        for at in (0.0, 1.0, 2.0):
            sim.schedule(at, timer.reset, 5.0)
        sim.run()
        assert fired == [7.0]
        assert not timer.armed

    def test_two_resets_at_one_instant_tie_break_on_the_second(self):
        sim = Simulator()
        order = []
        timer = sim.deadline(lambda: order.append("timer"))
        timer.reset(1.0)
        sim.schedule(1.0, order.append, "between")
        timer.reset(1.0)
        sim.schedule(1.0, order.append, "after")
        sim.run()
        assert order == ["between", "timer", "after"]

    def test_clear_disarms(self):
        sim = Simulator()
        fired = []
        timer = sim.deadline(lambda: fired.append(sim.now))
        timer.reset(1.0)
        assert timer.armed
        timer.clear()
        assert not timer.armed
        sim.run()
        assert fired == []

    def test_reset_to_an_earlier_time_fires_early_and_once(self):
        sim = Simulator()
        fired = []
        timer = sim.deadline(lambda: fired.append(sim.now))
        timer.reset(10.0)
        timer.reset(1.0)
        sim.run()
        assert fired == [1.0]

    def test_callback_may_rearm(self):
        sim = Simulator()
        fired = []

        def tick():
            fired.append(sim.now)
            if len(fired) < 3:
                timer.reset(2.0)

        timer = sim.deadline(tick)
        timer.reset(2.0)
        sim.run()
        assert fired == [2.0, 4.0, 6.0]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().deadline(lambda: None).reset(-1.0)
