"""Synchronization primitives with modelled costs.

The paper's runtime serializes threads at two points that matter to its
results:

* the **atomic add-and-fetch** in ``MPI_Pready`` — at high partition
  counts threads "take turns to increment the atomic counter", which the
  paper identifies as a source of arrival skew (Section V-C3, Fig. 12);
* the **progress-engine lock** — a single thread progresses MPI at a
  time (Section IV-A).

:class:`AtomicCounter` and :class:`SimLock` model both, each charging a
configurable per-access virtual-time cost while held, so contention
produces the same skew in simulation as on real hardware.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from repro.errors import SimulationError
from repro.sim.core import Environment, Event, LazyTimer, _PENDING


class SimLock:
    """A mutex for simulated processes.

    ``acquire`` returns an event that fires when the lock is granted;
    ``try_acquire`` is the non-blocking variant used by the paper's
    ``MPI_Parrived`` path ("tries to acquire a lock; ... otherwise it
    just returns").
    """

    __slots__ = ("env", "_locked", "_waiting", "contended_count")

    def __init__(self, env: Environment):
        self.env = env
        self._locked = False
        self._waiting: Deque[Event] = deque()
        #: Number of times the lock was found busy (contention statistic).
        self.contended_count = 0

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def queue_length(self) -> int:
        return len(self._waiting)

    def acquire(self) -> Event:
        """Blockingly claim the lock; fires when held."""
        ev = Event(self.env)
        if not self._locked:
            self._locked = True
            ev.succeed(None)
        else:
            self.contended_count += 1
            self._waiting.append(ev)
        return ev

    def try_acquire(self) -> bool:
        """Claim the lock iff free; returns whether it was claimed."""
        if self._locked:
            self.contended_count += 1
            return False
        self._locked = True
        return True

    def release(self) -> None:
        """Release; hands the lock to the oldest waiter if any."""
        if not self._locked:
            raise SimulationError("release() of an unlocked SimLock")
        if self._waiting:
            nxt = self._waiting.popleft()
            nxt.succeed(None)  # lock stays held, ownership transfers
        else:
            self._locked = False


class SimSemaphore:
    """A counting semaphore for simulated processes."""

    __slots__ = ("env", "_value", "_waiting")

    def __init__(self, env: Environment, value: int = 1):
        if value < 0:
            raise ValueError(f"semaphore value must be >= 0, got {value}")
        self.env = env
        self._value = value
        self._waiting: Deque[Event] = deque()

    @property
    def value(self) -> int:
        return self._value

    def acquire(self) -> Event:
        ev = Event(self.env)
        if self._value > 0:
            self._value -= 1
            ev.succeed(None)
        else:
            self._waiting.append(ev)
        return ev

    def release(self) -> None:
        if self._waiting:
            self._waiting.popleft().succeed(None)
        else:
            self._value += 1


class AtomicCounter:
    """A contended atomic integer with a per-access time cost.

    ``add_and_fetch`` models an atomic RMW: accesses serialize on an
    internal lock and each holds it for ``access_cost`` virtual seconds
    (cache-line ping-pong on real hardware).  The method is a *process
    body*: call it as ``value = yield from counter.add_and_fetch(env, 1)``.

    With ``access_cost == 0`` accesses are instantaneous but still
    atomic (trivially so, under DES single-stepping).
    """

    __slots__ = ("env", "_value", "access_cost", "_lock", "access_count")

    def __init__(self, env: Environment, initial: int = 0, access_cost: float = 0.0):
        if access_cost < 0:
            raise ValueError(f"negative access_cost: {access_cost}")
        self.env = env
        self._value = initial
        self.access_cost = access_cost
        self._lock = SimLock(env)
        #: total accesses, for contention statistics
        self.access_count = 0

    @property
    def value(self) -> int:
        """Current value (racy peek, as on real hardware)."""
        return self._value

    def add_and_fetch(self, delta: int = 1):
        """Atomically add ``delta``; yields, returns the new value."""
        yield self._lock.acquire()
        try:
            if self.access_cost > 0:
                yield self.access_cost
            self._value += delta
            self.access_count += 1
            return self._value
        finally:
            self._lock.release()

    def fetch(self):
        """Atomic read with the same serialization cost as a write."""
        yield self._lock.acquire()
        try:
            if self.access_cost > 0:
                yield self.access_cost
            self.access_count += 1
            return self._value
        finally:
            self._lock.release()


class Parker(Event):
    """One waiter's park on a :class:`Notify` latch, raced against a timer.

    The park ends on whichever comes first: the latch generation it was
    parked on is processed, or its fallback timer's slot comes round.
    The winner calls :meth:`_wake` from its own dispatch; by default the
    parker triggers itself at the current time with normal priority, so
    a process that yielded it resumes exactly where it would have
    resumed on an ``AnyOf(latch, timeout)``.  A timer win unhooks the
    parker from the latch, so a re-park on the same latch generation
    queues behind the waiters parked since, as a fresh park would.

    :meth:`Notify.wait` returns a fresh parker per call.  A long-lived
    waiter subclasses it, overrides :meth:`_wake`, and passes itself back
    to every :meth:`Notify.wait`: its fallback is then one
    :class:`~repro.sim.core.LazyTimer`, which keeps one heap entry
    however often the waiter re-parks.
    """

    __slots__ = ("_notify", "_latch", "_on_latch_cb", "_timer")

    def __init__(self, env: Environment):
        super().__init__(env)
        self._notify: Optional["Notify"] = None
        #: The latch generation this parker is hooked on, while parked.
        self._latch: Optional[Event] = None
        self._on_latch_cb = self._on_latch
        self._timer = LazyTimer(env, self._on_fallback)

    def _on_latch(self, latch: Event) -> None:
        self._latch = None
        self._timer.disarm()
        self._wake()

    def _on_fallback(self) -> None:
        self._latch.callbacks.remove(self._on_latch_cb)
        self._latch = None
        self._notify.fallback_wins += 1
        self._wake()

    def _wake(self) -> None:
        self.succeed(None)


class Notify:
    """An edge-triggered wakeup latch (the progress engine's *kick*).

    ``set`` arms the latch and wakes anything parked on the current
    :meth:`wait` event; repeated sets before a consume coalesce into
    one wakeup, matching completion-channel semantics.  A consumer that
    finds the latch ``pending`` calls :meth:`consume` to re-arm it and
    re-checks its condition — this check-consume-recheck discipline is
    what makes a set landing *between* a predicate check and the park
    impossible to lose.
    """

    __slots__ = ("env", "_event", "set_count", "fallback_wins")

    def __init__(self, env: Environment):
        self.env = env
        self._event = Event(env)
        #: Total sets that armed the latch (coalesced sets not counted).
        self.set_count = 0
        #: Parks that ended on their fallback timer rather than a set.
        self.fallback_wins = 0

    @property
    def pending(self) -> bool:
        """Whether a set has landed since the last :meth:`consume`."""
        return self._event._value is not _PENDING

    def set(self) -> None:
        """Arm the latch, waking the current wait event (idempotent)."""
        if not self._event.triggered:
            self._event.succeed(None)
            self.set_count += 1

    def consume(self) -> None:
        """Re-arm after observing a pending set (edge-triggered reset)."""
        self._event = Event(self.env)

    def wait(self, fallback: Optional[float] = None,
             parker: Optional[Parker] = None) -> Event:
        """Park until the next set (or for at most ``fallback`` seconds).

        Without ``fallback`` this is the *current* latch generation's
        event.  With it, the park is a :class:`Parker` (``parker``, or a
        fresh one) hooked on that generation and racing a fallback
        timer.  Either way a set that landed before this call ends the
        park at once, so a parker can never sleep through a wakeup it
        has not consumed.  Pass a parker back in only after it woke.
        """
        if fallback is None:
            return self._event
        if parker is None:
            parker = Parker(self.env)
        latch = self._event
        parker._notify = self
        parker._timer.arm(fallback)
        if latch.callbacks is None:
            # Latch generation already processed: win immediately.
            parker._on_latch(latch)
        else:
            parker._latch = latch
            latch.callbacks.append(parker._on_latch_cb)
        return parker


class SimBarrier:
    """A reusable barrier for ``parties`` simulated processes."""

    __slots__ = ("env", "parties", "_count", "_generation_event")

    def __init__(self, env: Environment, parties: int):
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.env = env
        self.parties = parties
        self._count = 0
        self._generation_event = Event(env)

    def wait(self) -> Event:
        """Returns an event that fires when all parties have arrived."""
        self._count += 1
        current = self._generation_event
        if self._count == self.parties:
            self._count = 0
            self._generation_event = Event(self.env)
            current.succeed(None)
        return current
