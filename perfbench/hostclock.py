"""Host seconds corrected for the host's changing speed.

The benchmark runs on a few cores of a shared host.  Other tenants make
that host slower or faster by up to a half within seconds, and every
workload slows with it, so raw host seconds of the same code spread
more between runs than the 25% a change may cost.

A :class:`HostClock` measures the host's speed while the workload runs.
A wall-clock interval timer (``SIGALRM``, no thread) interrupts the
workload every :data:`PERIOD_S`, runs a fixed reference kernel and
records how long it took.  :meth:`HostClock.scaled` then turns a timed
interval into *reference seconds*: the interval, less the samples
inside it, with each stretch between samples scaled by the kernel's
nominal cost over the mean cost of the :data:`SMOOTH` samples around
it.  A reference second is the time the interval would take on a host
where the kernel always takes its nominal cost.

There are two kernels, each like the work it corrects:
:func:`reference_kernel` (heap pushes and pops of tuples, ``__slots__``
objects, generator resumes, string-keyed dict updates) for the
simulator, and :func:`service_reference_kernel` (canonical JSON,
SHA-256, an atomic file replacement and a read) for the tuning-plan
service.

The kernels are benchmark code, so a change to ``repro`` cannot move
them: a program that does more work still reads slower, and one that
does less reads faster.  The samples cost about 2% of the run.  They
run with the garbage collector off and free all they allocate, so they
neither trigger collections of the workload's heap nor time them.
"""

from __future__ import annotations

import bisect
import gc
import hashlib
import heapq
import json
import os
import signal
import statistics
import tempfile
import time
from collections.abc import Mapping
from contextlib import contextmanager
from typing import Callable

#: Seconds between reference samples.
PERIOD_S = 0.05
#: Reference samples averaged into the host speed at each instant.
SMOOTH = 9
#: Nominal cost of one :func:`reference_kernel` sample: about its median
#: during a run on a 2-core Xeon VM, so reference and host seconds are
#: close there.
REF_NOMINAL_S = 0.7e-3
#: The same for :func:`service_reference_kernel`.
SERVICE_REF_NOMINAL_S = 1.1e-3
#: Reference kernels run, untimed, before sampling starts.
WARM_UP = 3

_KEYS = tuple(f"k{i}" for i in range(97))
#: Work items per :func:`reference_kernel`.
_N = 400
#: Canonical-JSON digests per :func:`service_reference_kernel`.
_DIGESTS = 12


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value


def _echo(n: int):
    total = 0
    for _ in range(n):
        total += yield total


def reference_kernel() -> int:
    """A fixed amount of interpreter work; returns a checksum."""
    n = _N
    heap = []
    table = {}
    echo = _echo(n + 1)
    next(echo)
    for i in range(n):
        heapq.heappush(heap, (i * 7919 % 401, i, _Item(_KEYS[i % 50], i)))
        echo.send(i)
        key = _KEYS[i % 97]
        table[key] = table.get(key, 0) + i
    total = sum(table.values())
    while heap:
        _, _, item = heapq.heappop(heap)
        total += item.value + len(item.key)
    echo.close()
    return total


_ENTRY = {
    "key": {"n_user": 64, "msg_bytes": 262144, "system": "reference",
            "plan_space": "reference/v1"},
    "choice": {"n_transport": 4, "n_qps": 2, "aggregation": "persist"},
    "version": 3,
    "meta": {"rounds_observed": 5, "confidence": 0.875,
             "history": [1, 2, 4, 8]},
}


def _canonical(value):
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def service_reference_kernel(root: str) -> int:
    """A fixed amount of service-like work; returns a checksum.

    The tuning-plan service's hot path is canonical JSON, SHA-256
    digests, atomic file replacement (a new temporary file renamed over
    the old one) and small file reads; this does the same work on a
    fixed entry, in the directory ``root``.
    """
    total = 0
    for _ in range(_DIGESTS):
        text = json.dumps(_canonical(_ENTRY), sort_keys=True,
                          separators=(",", ":"))
        total += hashlib.sha256(text.encode()).digest()[0]
    path = os.path.join(root, "reference.json")
    fd, tmp = tempfile.mkstemp(dir=root, suffix=".tmp")
    with os.fdopen(fd, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
    with open(path) as fh:
        total += len(json.loads(fh.read()))
    return total


class HostClock:
    """Samples the host's speed while running; scales intervals by it."""

    def __init__(self, kernel: Callable[[], object] = reference_kernel,
                 nominal: float = REF_NOMINAL_S):
        self.kernel = kernel
        self.nominal = nominal
        #: Start and cost (seconds) of each reference sample.
        self.stamps: list[float] = []
        self.costs: list[float] = []
        self._local: list[float] | None = None
        self._busy = False

    def _sample(self, signum, frame) -> None:
        # No sample while paused, nor nested in a sample the host
        # stalled for a whole period.
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.kernel()
            cost = time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.stamps.append(start)
        self.costs.append(cost)

    @contextmanager
    def running(self):
        """Take samples every ``PERIOD_S`` while the block runs."""
        for _ in range(WARM_UP):
            self.kernel()
        self._local = None
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous or signal.SIG_DFL)

    @contextmanager
    def paused(self):
        """Take no samples while the block runs."""
        self._busy = True
        try:
            yield
        finally:
            self._busy = False

    def _local_costs(self) -> list[float]:
        """Each sample's cost averaged with its ``SMOOTH`` neighbours."""
        if self._local is None:
            half = SMOOTH // 2
            self._local = [
                statistics.fmean(self.costs[max(0, k - half):k + half + 1])
                for k in range(len(self.costs))]
        return self._local

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the ``perf_counter`` interval [start, end)."""
        if not self.costs:
            raise RuntimeError("no reference samples were taken")
        local = self._local_costs()
        first = bisect.bisect_left(self.stamps, start)
        last = bisect.bisect_left(self.stamps, end)
        total = 0.0
        mark = start
        for k in range(first, last):
            total += (self.stamps[k] - mark) / local[k]
            mark = self.stamps[k] + self.costs[k]
        total += (end - mark) / local[min(last, len(local) - 1)]
        return total * self.nominal

    def median_cost(self) -> float:
        return statistics.median(self.costs) if self.costs else 0.0
