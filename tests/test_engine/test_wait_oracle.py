"""Differential oracle: the callback-driven idle wait against the generator loop.

:meth:`ProgressEngine.wait_until` hands its lock-miss loop to event
callbacks, and :meth:`Notify.wait` arms one lazily queued fallback
timer per waiter instead of a ``Timeout`` plus a first-of-two race per
park.  Neither change may move a single event.  This file keeps the
earlier implementation -- the all-generator ``wait_until`` loop and the
``Timeout``/race park -- as the reference, and runs both on the same
randomized herds: many waiters on one engine, pollers that hold the lock
for random CPU costs, same-timestamp kick bursts, completions that no
kick announces (so only fallback timers find them), and deadline-clamped
and expiring waits.  Every observable must match bit for bit: each
wait's return time (or deadline error), the lock's contention count, the
engine's passes and handled events, the latch's set and fallback-win
counts, the order and time of every poll, and the clock after ``run()``.

A failing example prints the seed that replays it:
``_run_both(seed)`` rebuilds the same herd.
"""

from __future__ import annotations

import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import EpochDeadlineError, Interrupt
from repro.engine import ProgressEngine
from repro.sim import Environment
from repro.sim.core import Event, _PENDING
from repro.units import ns, us


# -- the reference: the generator loop and the Timeout/race park ----------


class _RefRace(Event):
    """First-of-two race between a latch generation and a timeout."""

    __slots__ = ("notify", "timer")

    def _win(self, event):
        if self._value is not _PENDING:
            return
        if event is self.timer:
            self.notify.fallback_wins += 1
        self.succeed(event._value)


class _RefNotify:
    """The latch, parking through a ``Timeout`` and a race per park."""

    def __init__(self, env):
        self.env = env
        self._event = Event(env)
        self.set_count = 0
        self.fallback_wins = 0

    @property
    def pending(self):
        return self._event.triggered

    def set(self):
        if not self._event.triggered:
            self._event.succeed(None)
            self.set_count += 1

    def consume(self):
        self._event = Event(self.env)

    def wait(self, fallback):
        latch = self._event
        timer = self.env.timeout(fallback)
        race = _RefRace(self.env)
        race.notify = self
        race.timer = timer
        if latch.callbacks is None:
            race._win(latch)
        else:
            latch.callbacks.append(race._win)
        timer.callbacks.append(race._win)
        return race


class _RefEngine(ProgressEngine):
    """A progress engine whose waits run entirely in the generator."""

    def __init__(self, env, t_poll_miss, idle_fallback):
        super().__init__(env, t_poll_miss, idle_fallback)
        self._notify = _RefNotify(env)

    def wait_until(self, predicate, deadline=None, describe=""):
        env = self.env
        lock = self.lock
        notify = self._notify
        pollers = self._pollers
        t_poll_miss = self.t_poll_miss
        while not predicate():
            if deadline is not None and env._now >= deadline:
                raise EpochDeadlineError(
                    f"epoch overran its deadline waiting for "
                    f"{describe or 'completion'}")
            if not lock.try_acquire():
                yield t_poll_miss
                handled = 0
            else:
                try:
                    handled = 0
                    for poller, quick in pollers:
                        if quick is not None:
                            settled = quick()
                            if settled is not None:
                                handled += settled
                                continue
                        handled += yield from poller()
                    if handled == 0:
                        yield t_poll_miss
                    self.passes += 1
                    self.events_handled += handled
                finally:
                    lock.release()
            if predicate():
                break
            if handled == 0:
                if notify.pending:
                    notify.consume()
                    continue
                park = self.idle_fallback
                if deadline is not None:
                    park = min(park, max(deadline - env._now, 0.0))
                yield notify.wait(park)


# -- a randomized herd -----------------------------------------------------


def _herd(seed: int) -> dict:
    """Draw every input of one herd up front, so both runs see the same."""
    rng = random.Random(seed)
    t_poll_miss = ns(rng.choice((20, 50, 100)))
    idle_fallback = us(rng.choice((1, 2, 5, 20)))
    n_items = rng.randint(1, 60)
    # Completions: bursts of items landing at one timestamp, some with
    # one or more kicks (a burst of kicks at that instant), some silent,
    # separated by gaps that are often longer than the fallback.
    bursts = []
    t = 0.0
    items = list(range(n_items))
    rng.shuffle(items)
    while items:
        t += rng.choice((0.0, ns(10), t_poll_miss, us(1), us(3), us(30)))
        size = min(len(items), rng.randint(1, 6))
        bursts.append((t, items[:size], rng.choice((0, 1, 1, 2, 3))))
        items = items[size:]
    horizon = t
    waiters = []
    for _ in range(rng.randint(1, 40)):
        waits = []
        for _ in range(rng.randint(1, 3)):
            want = rng.sample(range(n_items), rng.randint(1, min(3, n_items)))
            if rng.random() < 0.3:
                # Grid-aligned budgets hit parks clamped to zero length.
                budget = rng.choice((t_poll_miss, 2 * t_poll_miss,
                                     rng.uniform(0, horizon + us(5))))
            else:
                budget = None
            waits.append((want, budget))
        waiters.append((rng.choice((0.0, 0.0, ns(10), us(1),
                                    rng.uniform(0, horizon))), waits))
    pollers = [(rng.randint(1, 4),
                [rng.choice((0.0, ns(30), ns(70), us(1)))
                 for _ in range(5)],
                rng.random() < 0.5)
               for _ in range(rng.randint(1, 3))]
    spinners = [(rng.uniform(0, horizon), rng.randint(1, 8))
                for _ in range(rng.randint(0, 3))]
    return {"t_poll_miss": t_poll_miss, "idle_fallback": idle_fallback,
            "n_items": n_items, "bursts": bursts, "waiters": waiters,
            "pollers": pollers, "spinners": spinners}


def _run(herd: dict, engine_cls) -> dict:
    env = Environment()
    engine = engine_cls(env, herd["t_poll_miss"], herd["idle_fallback"])
    done = [False] * herd["n_items"]
    landed: deque = deque()
    polls = []

    def make_poller(k, batch, costs):
        calls = [0]

        def poller():
            n = 0
            while landed and n < batch:
                done[landed.popleft()] = True
                n += 1
                cost = costs[(calls[0] + n) % len(costs)]
                if cost:
                    yield cost
            calls[0] += 1
            polls.append((env.now.hex(), k, n))
            return n

        return poller

    for k, (batch, costs, quick) in enumerate(herd["pollers"]):
        engine.register(make_poller(k, batch, costs),
                        (lambda: None if landed else 0) if quick else None)

    def hardware():
        for t, items, kicks in herd["bursts"]:
            if t > env.now:
                yield t - env.now
            landed.extend(items)
            for _ in range(kicks):
                engine.kick()

    outcomes = []

    def waiter(start, waits):
        if start:
            yield start
        for want, budget in waits:
            deadline = None if budget is None else env.now + budget
            try:
                yield from engine.wait_until(
                    lambda: all(done[i] for i in want), deadline=deadline)
                outcomes.append(("done", env.now.hex()))
            except EpochDeadlineError:
                outcomes.append(("overrun", env.now.hex()))

    def spinner(start, tries):
        yield start
        for _ in range(tries):
            yield from engine.progress_once()

    env.process(hardware())
    for start, waits in herd["waiters"]:
        env.process(waiter(start, waits))
    for start, tries in herd["spinners"]:
        env.process(spinner(start, tries))
    env.run()
    return {"outcomes": outcomes, "polls": polls,
            "contended": engine.lock.contended_count,
            "passes": engine.passes,
            "events_handled": engine.events_handled,
            "set_count": engine._notify.set_count,
            "fallback_wins": engine._notify.fallback_wins,
            "now": env.now.hex()}


def _run_both(seed: int):
    herd = _herd(seed)
    return _run(herd, _RefEngine), _run(herd, ProgressEngine)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_callback_wait_matches_generator_loop(seed):
    reference, change = _run_both(seed)
    for key in reference:
        assert change[key] == reference[key], (
            f"{key} differs; replay with _run_both({seed})")


def test_fixed_herds_match_and_reach_timer_wins_and_overruns():
    # A herd family with no timer win or no deadline error would make
    # the comparison above prove little about those paths.
    results = []
    for seed in range(8):
        reference, change = _run_both(seed)
        assert change == reference, f"replay with _run_both({seed})"
        results.append(change)
    assert sum(r["fallback_wins"] for r in results) > 0
    assert any(kind == "overrun" for r in results for kind, _ in r["outcomes"])


def _one_waiter(engine_cls, budget, hold):
    """A waiter parks while another process holds the lock for ``hold``."""
    env = Environment()
    engine = engine_cls(env, ns(50), us(5))
    flag = [False]
    log = []

    def holder():
        assert engine.lock.try_acquire()
        yield hold
        engine.lock.release()

    def waiter():
        try:
            yield from engine.wait_until(lambda: flag[0], deadline=budget)
            log.append(("done", env.now.hex()))
        except EpochDeadlineError:
            log.append(("overrun", env.now.hex()))

    def setter():
        yield us(12)
        flag[0] = True  # silent: only a fallback timer can find it

    env.process(holder())
    env.process(waiter())
    env.process(setter())
    env.run()
    return log, engine.lock.contended_count, engine._notify.fallback_wins, \
        env.now.hex()


@pytest.mark.parametrize("budget,hold", [
    (None, ns(20)),        # timer wins, then re-parks on the same latch
    (ns(50), us(1)),       # the miss charge ends exactly at the deadline
    (us(3), us(1)),        # a deadline-clamped park that expires
    (us(7), ns(20)),       # one full fallback, then a clamped one
])
def test_directed_parks_match_reference(budget, hold):
    reference = _one_waiter(_RefEngine, budget, hold)
    change = _one_waiter(ProgressEngine, budget, hold)
    assert change == reference


def _abandoned_waits(engine_cls):
    """One waiter is interrupted while parked, one sees its predicate fail."""
    env = Environment()
    engine = engine_cls(env, ns(50), us(5))
    log = []

    def holder():
        assert engine.lock.try_acquire()
        yield us(1)
        engine.lock.release()

    def broken():
        if env.now > ns(100):
            raise KeyError("request vanished")
        return False

    def failing():
        try:
            yield from engine.wait_until(broken)
        except KeyError:
            log.append(("predicate error", env.now.hex()))

    def interrupted():
        try:
            yield from engine.wait_until(lambda: False)
        except Interrupt:
            log.append(("interrupted", env.now.hex()))

    def kicker(victim):
        yield us(2)
        victim.interrupt()
        yield us(1)
        engine.kick()

    env.process(holder())
    env.process(failing())
    victim = env.process(interrupted())
    env.process(kicker(victim))
    env.run()
    return log, engine.lock.contended_count, engine.passes, env.now.hex()


def test_abandoned_waits_match_reference():
    # A predicate error and an interrupt both leave the wait at the
    # point the generator loop left it, with no hook left behind.
    reference = _abandoned_waits(_RefEngine)
    assert [kind for kind, _ in reference[0]] == ["interrupted",
                                                   "predicate error"]
    assert _abandoned_waits(ProgressEngine) == reference
