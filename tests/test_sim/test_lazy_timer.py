"""LazyTimer: one queued entry per timer, exact slots, and the end-of-run clock."""

from __future__ import annotations

import pytest

from repro.errors import SimTimeError
from repro.sim.core import Environment, LazyTimer
from repro.sim.sync import Notify


def _timer(env, log):
    return LazyTimer(env, lambda: log.append(env.now))


def _rearm_at(env, timer, times, delay):
    """A process that re-arms ``timer`` for ``delay`` at each of ``times``."""
    def body():
        for t in times:
            if t > env.now:
                yield t - env.now
            timer.arm(delay)
    return env.process(body())


def test_rearming_keeps_one_entry_and_fires_the_latest_slot():
    env = Environment()
    fired = []
    timer = _timer(env, fired)
    timer.arm(10.0)
    timer.arm(12.0)  # due later: waits for the live entry to pop
    assert len(env._heap) == 1
    _rearm_at(env, timer, [3.0, 4.0], 10.0)
    env.run()
    assert fired == [14.0]


def test_a_timer_fires_at_the_slot_an_eager_timeout_would_take():
    # Same-time ties break by reservation order, exactly as Timeouts'.
    env = Environment()
    order = []
    lazy = LazyTimer(env, lambda: order.append("lazy"))
    lazy.arm(5.0)
    env.timeout(3.0).callbacks.append(lambda _e: order.append("before"))

    def rearm():
        yield 1.0
        lazy.arm(5.0)  # reserved at t=1, before the timeout below
        env.timeout(5.0).callbacks.append(lambda _e: order.append("after"))

    env.process(rearm())
    env.run()
    assert order == ["before", "lazy", "after"]
    assert env.now == 6.0


def test_an_earlier_rearm_is_queued_at_once():
    env = Environment()
    fired = []
    timer = _timer(env, fired)
    timer.arm(10.0)
    timer.arm(2.0)
    assert env.peek() == 2.0
    env.run()
    assert fired == [2.0]
    assert env.now == 10.0  # the superseded entry still drains


def test_zero_delay_fires_in_the_current_batch():
    env = Environment()
    fired = []
    timer = _timer(env, fired)
    timer.arm(5.0)
    timer.arm(0.0)
    env.run(until=1.0)
    assert fired == [0.0]


def test_disarmed_timer_fires_nothing():
    env = Environment()
    fired = []
    timer = _timer(env, fired)
    timer.arm(1.0)
    timer.disarm()
    env.run()
    assert fired == []


def test_negative_delay_is_rejected():
    env = Environment()
    with pytest.raises(SimTimeError):
        LazyTimer(env, lambda: None).arm(-1.0)


# -- the end-of-run clock --------------------------------------------------


def _elided_tail(env):
    """Arm at t=0 for 10 s, re-arm at t=1 for 10 s, disarm at t=2.

    The t=1 reservation (due at 11) is never queued: the t=0 entry pops
    at 10 to find the timer disarmed.
    """
    timer = LazyTimer(env, lambda: None)
    timer.arm(10.0)

    def body():
        yield 1.0
        timer.arm(10.0)
        yield 1.0
        timer.disarm()

    env.process(body())
    return timer


def test_run_ends_at_the_latest_elided_deadline():
    env = Environment()
    _elided_tail(env)
    env.run()
    assert env.now == 11.0


def test_run_until_time_is_unaffected_by_elided_deadlines():
    env = Environment()
    _elided_tail(env)
    env.run(until=5.0)
    assert env.now == 5.0
    env.run(until=10.5)
    assert env.now == 10.5
    env.run()
    assert env.now == 11.0


def test_run_until_event_is_unaffected_by_elided_deadlines():
    env = Environment()
    _elided_tail(env)
    stop = env.timeout(3.0)
    env.run(until=stop)
    assert env.now == 3.0


def test_peek_does_not_report_elided_reservations():
    env = Environment()
    _elided_tail(env)
    env.run(until=10.5)
    assert env.peek() == float("inf")


def test_notify_counts_fallback_wins():
    env = Environment()
    notify = Notify(env)
    woken = []

    def parker(fallback):
        yield notify.wait(fallback)
        woken.append(env.now)

    env.process(parker(1.0))   # nothing sets the latch by t=1
    env.process(parker(5.0))

    def setter():
        yield 2.0
        notify.set()

    env.process(setter())
    env.run()
    assert woken == [1.0, 2.0]
    assert notify.fallback_wins == 1
    assert notify.set_count == 1
    assert env.now == 5.0
