"""The single-threaded progress engine (paper Section IV-A).

"Our progress engine design is single-threaded, we only allow a single
thread to progress at a time.  ``MPI_Parrived`` tries to acquire a
lock.  If it is successful, it will progress all MPI messages and
release the lock upon completion.  Otherwise it just returns."

The progress engine is the *driver* of the transport engine: pollers
(one per bound completion queue, registered through
:class:`~repro.engine.router.CompletionRouter`) are generator functions
that poll their CQs, charge CPU costs, and return the number of events
handled.  Waiting is event-driven across idle stretches: the engine
parks on a :class:`~repro.sim.sync.Notify` latch that completion-queue
pushes trigger, instead of burning a simulation event per spin — same
virtual-time semantics, thousands of times fewer events.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Iterable

from repro.sim.core import Environment, Event
from repro.sim.sync import Notify, Parker, SimLock
from repro.units import us

#: Default fallback park time while waiting with no kick (guards against
#: a missing notification path ever deadlocking a wait).  Completion
#: queues kick the engine on every push, so this only bounds the rare
#: conditions with no notification hook; keeping it long keeps idle
#: waits cheap (one wakeup per 100 us instead of per 10 us).
#: Overridable per cluster via ``EngineConfig.idle_fallback``.
_IDLE_FALLBACK = us(100)

Poller = Callable[[], Iterable]  # generator function returning int


class ProgressEngine:
    """Polls all registered transports under a single lock."""

    def __init__(self, env: Environment, t_poll_miss: float,
                 idle_fallback: float = _IDLE_FALLBACK):
        if idle_fallback <= 0:
            raise ValueError(
                f"idle_fallback must be positive, got {idle_fallback}")
        self.env = env
        self.t_poll_miss = t_poll_miss
        self.idle_fallback = idle_fallback
        self.lock = SimLock(env)
        self._pollers: list[tuple[Poller, "Callable | None"]] = []
        self._notify = Notify(env)
        # statistics
        self.passes = 0
        self.events_handled = 0

    def register(self, poller: Poller, quick: "Callable | None" = None) -> None:
        """Add a transport poller (a generator function returning a count).

        ``quick``, if given, is a plain callable tried first on every
        pass: it returns an int to settle the pass without instantiating
        the generator (the no-pending-work fast path, including any idle
        side effects), or ``None`` to fall through to ``poller()``.  It
        must be event-free — a pass settled by ``quick`` yields nothing.
        """
        self._pollers.append((poller, quick))

    def kick(self) -> None:
        """Wake any process parked in :meth:`wait_until` (CQ push hook)."""
        self._notify.set()

    def watch_cq(self, cq) -> None:
        """Arrange for pushes on ``cq`` to kick this engine."""
        cq.on_push.append(lambda wc: self.kick())

    def progress_once(self):
        """One progress pass; yields, returns events handled (0 if lock busy).

        The non-blocking try-lock variant used from ``MPI_Parrived`` and
        ``MPI_Pready`` contexts.  A failed probe still costs the caller
        a poll's worth of CPU — and guarantees time advances, so a
        thread spin-polling ``Parrived`` against a busy engine cannot
        livelock the simulation.
        """
        if not self.lock.try_acquire():
            yield self.t_poll_miss
            return 0
        try:
            handled = 0
            for poller, quick in self._pollers:
                if quick is not None:
                    settled = quick()
                    if settled is not None:
                        handled += settled
                        continue
                handled += yield from poller()
            if handled == 0:
                yield self.t_poll_miss
            self.passes += 1
            self.events_handled += handled
            return handled
        finally:
            self.lock.release()

    def wait_until(self, predicate: Callable[[], bool],
                   deadline: "float | None" = None, describe: str = ""):
        """Progress until ``predicate()`` holds; yields (``MPI_Wait`` core).

        Idle stretches park on the kick latch rather than spinning.
        With a ``deadline`` (absolute virtual time), an epoch that is
        still incomplete at that time raises
        :class:`~repro.errors.EpochDeadlineError` instead of waiting
        forever — the chaos layer's bound on a hung edge.  ``describe``
        names the waited-on work in that error.

        The generator runs only the progress passes it wins.  Once the
        try-lock misses, the wait is handed to an :class:`_IdleWait`,
        whose event callbacks run the miss charge, the re-checks and the
        parks, and which resumes the generator only when the predicate
        holds, the deadline has passed, or the lock is won.
        """
        lock = self.lock
        notify = self._notify
        pollers = self._pollers
        t_poll_miss = self.t_poll_miss
        waiter = None
        try:
            while not predicate():
                if deadline is not None and self.env._now >= deadline:
                    raise _overrun(describe)
                if not lock.try_acquire():
                    if waiter is None:
                        waiter = _IdleWait(self, predicate, deadline, describe)
                    if (yield waiter.after_miss()):
                        return
                # The lock is held: pass until a pass finds nothing.
                while True:
                    # One progress pass, inlined from :meth:`progress_once`
                    # (the yielded event sequence must stay identical).
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
                        return
                    if handled:
                        break
                    if notify.pending:
                        # A completion landed since the last park — it may
                        # not have been polled yet (e.g. it arrived during
                        # this very pass).  Consume the trigger and re-poll
                        # rather than parking past real work.
                        notify.consume()
                        break
                    if waiter is None:
                        waiter = _IdleWait(self, predicate, deadline, describe)
                    if (yield waiter.after_park()):
                        return
        finally:
            if waiter is not None:
                waiter.close()

    def __repr__(self) -> str:
        return (f"<ProgressEngine pollers={len(self._pollers)} "
                f"passes={self.passes}>")


def _overrun(describe: str) -> Exception:
    from repro.errors import EpochDeadlineError

    return EpochDeadlineError(
        f"epoch overran its deadline waiting for {describe or 'completion'}")


class _IdleWait(Parker):
    """The lock-miss loop of one :meth:`ProgressEngine.wait_until` call.

    A waiter that misses the try-lock sleeps ``t_poll_miss``, re-checks
    its predicate and the kick latch, parks, and on waking re-checks and
    tries the lock again.  This object runs that loop as event callbacks
    while the waiter's process sits on :attr:`_handoff`.  It is itself
    the queued event of each step, at the ``(time, priority, seq)``
    position the generator's own sleep or park event took, and it
    resumes the process synchronously from that dispatch: with ``True``
    when the predicate holds, ``False`` once it holds the lock, or by
    throwing the deadline (or predicate) error.  See docs/PERF.md §5.
    """

    __slots__ = ("_predicate", "_deadline", "_describe", "_t_poll_miss",
                 "_fallback", "_try_acquire", "_handoff", "_miss_cbs",
                 "_park_cbs", "_closed")

    def __init__(self, engine: ProgressEngine, predicate: Callable[[], bool],
                 deadline: "float | None", describe: str):
        super().__init__(engine.env)
        self._ok = True
        self._value = None
        self._notify = engine._notify
        self._t_poll_miss = engine.t_poll_miss
        self._fallback = engine.idle_fallback
        self._predicate = predicate
        self._deadline = deadline
        self._describe = describe
        self._try_acquire = engine.lock.try_acquire
        #: Never queued: fired by hand to resume the waiting process.
        self._handoff = Event(engine.env)
        self._miss_cbs = [self._missed]
        self._park_cbs = [self._retry]
        self._closed = False

    # -- entry from the generator: start a step, return what to yield --

    def after_miss(self) -> Event:
        """Charge a lock miss, then run the loop until a resume."""
        self._sleep()
        return self._wait()

    def after_park(self) -> Event:
        """Park (the pass found nothing), then run the loop."""
        self._park()
        return self._wait()

    def close(self) -> None:
        """The wait is over (or abandoned): drop any hook still set."""
        self._closed = True
        self._timer.disarm()
        latch = self._latch
        if latch is not None:
            self._latch = None
            latch.callbacks.remove(self._on_latch_cb)

    def _wait(self) -> Event:
        handoff = self._handoff
        handoff.callbacks = []
        return handoff

    # -- the loop ---------------------------------------------------------

    def _sleep(self) -> None:
        env = self.env
        self.callbacks = self._miss_cbs
        now = env._now
        when = now + self._t_poll_miss
        if when > now:
            seq = env._seq
            env._seq = seq + 1
            heappush(env._heap, (when, 1, seq, self))
        else:
            env._cur_normal.append(self)

    def _park(self) -> None:
        fallback = self._fallback
        deadline = self._deadline
        if deadline is not None:
            fallback = min(fallback, max(deadline - self.env._now, 0.0))
        self._notify.wait(fallback, self)

    def _wake(self) -> None:
        self.callbacks = self._park_cbs
        self.env._cur_normal.append(self)

    def _missed(self, _event: Event) -> None:
        if self._closed:
            return
        try:
            done = self._predicate()
        except BaseException as exc:
            self._resume(exc, False)
            return
        if done:
            self._resume(True)
            return
        notify = self._notify
        if notify.pending:
            notify.consume()
            self._retry()
        else:
            self._park()

    def _retry(self, _event: "Event | None" = None) -> None:
        """The top of the wait loop: predicate, deadline, try-lock."""
        if self._closed:
            return
        try:
            done = self._predicate()
        except BaseException as exc:
            self._resume(exc, False)
            return
        if done:
            self._resume(True)
        elif self._deadline is not None and self.env._now >= self._deadline:
            self._resume(_overrun(self._describe), False)
        elif self._try_acquire():
            self._resume(False)
        else:
            self._sleep()

    def _resume(self, value, ok: bool = True) -> None:
        handoff = self._handoff
        handoff._ok = ok
        handoff._value = value
        callbacks, handoff.callbacks = handoff.callbacks, None
        for callback in callbacks:
            callback(handoff)
