"""Traced-pass tooling: per-layer self time and exact work counts.

Nothing here edits the program.  For the duration of one traced pass
the :class:`Tracer`

* runs a cProfile capture and attributes every function's self time to
  the ``repro`` package its source file lives in (:func:`layer_of`);
* reads exact call counts of plain functions from the profile;
* installs thin counting wrappers on public generator methods (cProfile
  counts each generator resume as a call) and on the methods whose
  result decides a hit ratio;
* wraps ``Environment.__init__`` so every simulation kernel gets a
  :class:`repro.sim.profile.KernelProfile`, which counts dispatched
  events.

All patches are undone when the pass ends.
"""

from __future__ import annotations

import cProfile
import importlib
import os
import pstats
from collections import Counter
from contextlib import contextmanager

#: Layers reported by name; other ``repro`` packages and top-level
#: modules fall into ``misc``, the benchmark's own files into
#: ``harness``, and the standard library and numpy into ``other``.
LAYERS = ("sim", "ib", "engine", "mpi", "core", "coll", "fleet",
          "autotune", "plan", "serve", "runtime", "exp", "bench")
BUCKETS = LAYERS + ("misc", "harness", "other")
#: ``repro`` files that only run because the traced pass switched them
#: on (the kernel's dispatch hook); their self time is tracing cost.
INSTRUMENTATION = (os.path.join("sim", "profile.py"),)


def layer_of(filename: str, repro_dir: str, harness_dir: str) -> str:
    """The bucket whose self time a function in ``filename`` counts to."""
    path = os.path.normpath(filename)
    if path.startswith(os.path.normpath(harness_dir) + os.sep):
        return "harness"
    root = os.path.normpath(repro_dir) + os.sep
    if not path.startswith(root):
        return "other"
    relative = path[len(root):]
    if relative in INSTRUMENTATION:
        return "harness"
    parts = relative.split(os.sep)
    if len(parts) > 1 and parts[0] in LAYERS:
        return parts[0]
    return "misc"


def _code_key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _profiled_functions() -> dict:
    """Plain functions counted exactly from the profile, by metric."""
    from repro.autotune.controller import AutotuneController
    from repro.engine.progress import ProgressEngine
    from repro.ib.qp import QueuePair
    from repro.serve.shard import ShardedStore
    from repro.sim.core import Environment
    from repro.sim.process import Process
    from repro.sim.sync import Notify

    # ``repro.plan`` re-exports ``lower`` the function over the module.
    plan_lower = importlib.import_module("repro.plan.lower")
    return {
        "sim.timeouts": [Environment.timeout],
        "sim.parks": [Notify.wait],
        "sim.resumes": [Process._resume],
        "engine.kicks": [ProgressEngine.kick],
        "ib.wrs_posted": [QueuePair.post_send],
        "autotune.rounds": [AutotuneController.plan_for_round],
        "plan.lowerings": [plan_lower.lower, plan_lower.lower_edges],
        "serve.backend_reads": [ShardedStore.read],
    }


class Tracer:
    """Collects one traced pass; see the module docstring."""

    def __init__(self, repro_dir: str, harness_dir: str):
        self.repro_dir = repro_dir
        self.harness_dir = harness_dir
        self.counts: Counter = Counter()
        self._profiles = []
        self._native_modules = []
        self._patches = []
        self._profile = cProfile.Profile()

    # -- patching --------------------------------------------------------

    def _patch(self, cls, name: str, replacement) -> None:
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, replacement)

    def _count_calls(self, cls, name: str, key: str) -> None:
        fn = cls.__dict__[name]
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        self._patch(cls, name, counted)

    def _count_hits(self, cls, name: str, key: str) -> None:
        """Count calls under ``key`` and truthy results under ``key_hits``."""
        fn = cls.__dict__[name]
        counts = self.counts
        hit_key = key + "_hits"

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1
            if result:
                counts[hit_key] += 1
            return result

        self._patch(cls, name, counted)

    def _install(self) -> None:
        from repro.coll.base import PartitionedCollective
        from repro.core.module import NativeVerbsModule
        from repro.engine.progress import ProgressEngine
        from repro.ib.cq import CompletionQueue
        from repro.mpi.process import MPIProcess
        from repro.sim.core import Environment
        from repro.sim.profile import KernelProfile
        from repro.sim.sync import SimLock

        self._count_calls(ProgressEngine, "wait_until", "engine.waits")
        for name in ("wait", "wait_all", "wait_partitioned"):
            self._count_calls(MPIProcess, name, "mpi.waits")
        self._count_calls(MPIProcess, "pready", "mpi.preadys")
        self._count_calls(PartitionedCollective, "pready", "coll.preadys")
        self._count_calls(NativeVerbsModule, "pready", "core.preadys")
        self._count_hits(SimLock, "try_acquire", "engine.lock_tries")
        self._count_hits(CompletionQueue, "poll", "ib.cq_polls")

        profiles, modules = self._profiles, self._native_modules
        env_init = Environment.__dict__["__init__"]
        module_init = NativeVerbsModule.__dict__["__init__"]

        def env_with_profile(env, *args, **kwargs):
            env_init(env, *args, **kwargs)
            profiles.append(KernelProfile.attach(env))

        def tracked_module(module, *args, **kwargs):
            module_init(module, *args, **kwargs)
            modules.append(module)

        self._patch(Environment, "__init__", env_with_profile)
        self._patch(NativeVerbsModule, "__init__", tracked_module)

    def _uninstall(self) -> None:
        while self._patches:
            cls, name, original = self._patches.pop()
            setattr(cls, name, original)

    @contextmanager
    def active(self):
        """Trace everything run inside the ``with`` block."""
        self._install()
        try:
            self._profile.enable()
            try:
                yield self
            finally:
                self._profile.disable()
        finally:
            self._uninstall()

    def unit_done(self) -> None:
        """Fold the finished unit's kernels and modules into the counts.

        Called after every unit so a pass does not keep every
        simulation alive until it ends.
        """
        self.counts["sim.events"] += sum(p.events for p in self._profiles)
        self.counts["core.wrs_posted"] += sum(
            m.total_wrs_posted for m in self._native_modules)
        self._profiles.clear()
        self._native_modules.clear()

    # -- results ---------------------------------------------------------

    def self_seconds(self) -> dict:
        """Profiled self time summed by bucket (every bucket present)."""
        seconds = dict.fromkeys(BUCKETS, 0.0)
        stats = pstats.Stats(self._profile).stats
        for (filename, _, _), (_, _, tt, _, _) in stats.items():
            bucket = layer_of(filename, self.repro_dir, self.harness_dir)
            seconds[bucket] += tt
        return seconds

    def exact_counts(self) -> Counter:
        """Wrapper counts plus profile call counts of plain functions."""
        counts = Counter(self.counts)
        stats = pstats.Stats(self._profile).stats
        for metric, functions in _profiled_functions().items():
            counts[metric] += sum(stats.get(_code_key(fn), (0, 0))[1]
                                  for fn in functions)
        return counts
