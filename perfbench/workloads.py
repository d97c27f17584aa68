"""The benchmark's three workloads: how each builds its inputs and runs.

A workload's ``setup(seed, tmp)`` imports the ``repro`` layers it uses
and builds its inputs; it returns a list of :class:`Unit` objects, the
pieces the harness times one by one.  A DES unit is one sweep point
executed through :func:`repro.exp.kinds.run_point`, the same pure
function the experiment runner calls, so no result cache or process
pool is involved.  A ``plan_service`` unit is one client session
against a fresh on-disk :class:`repro.serve.TuningService`.

The seed selects one of :data:`VARIANTS` input variants.  DES points
receive the variant as their scenario ``seed`` (the cluster config seed;
fleet points also seed their placement and traffic with it), and the
service client draws its key and op streams from it.  Expected outputs
are recorded for every variant, so any seed is checked bit for bit.
"""

from __future__ import annotations

import functools
import importlib
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

from hostclock import (SERVICE_REF_NOMINAL_S, HostClock,
                       service_reference_kernel)
from measure import point_id

#: Distinct input variants; ``--seed n`` runs variant ``n % VARIANTS``.
VARIANTS = 8


def variant_of(seed: int) -> int:
    return seed % VARIANTS


@dataclass
class UnitResult:
    """What one execution of a unit produced."""

    #: JSON-safe outputs, compared bit for bit (see ``measure.encode``).
    outputs: object
    attempted: int = 1
    failed: int = 0
    #: Per-op host latencies in ns, by op kind (service sessions only).
    latencies_ns: dict = field(default_factory=dict)
    #: Layer facts the traced run reports (service sessions only).
    facts: dict = field(default_factory=dict)


@dataclass
class Unit:
    label: str
    run: Callable[[], UnitResult]
    #: Whether the harness checks ``outputs`` against recorded values.
    has_expected: bool = True


# ------------------------------------------------------------- DES points


@dataclass(frozen=True)
class DesWorkload:
    """A selection of one registered experiment's fast-profile points."""

    name: str
    experiment: str
    #: Modules the points import lazily, imported here as set-up.
    layers: tuple
    select: Callable[[dict], bool] = lambda point: True
    #: Points the selection must yield (a guard against registry drift).
    n_points: int = 0

    def points(self, seed: int) -> list[dict]:
        from repro.exp.profiles import get_profile
        from repro.exp.registry import get_experiment

        spec = get_experiment(self.experiment).build(get_profile("fast"))
        points = []
        for scenario in spec.points:
            point = scenario.as_dict()
            if self.select(point):
                point["params"]["seed"] = variant_of(seed)
                points.append(point)
        if len(points) != self.n_points:
            raise RuntimeError(
                f"{self.name}: selected {len(points)} points from "
                f"{self.experiment}, expected {self.n_points}")
        return points

    def host_clock(self, tmp: str) -> HostClock:
        return HostClock()

    def setup(self, seed: int, tmp: str) -> list[Unit]:
        from repro.exp.kinds import run_point

        for module in self.layers:
            importlib.import_module(module)
        units = []
        for point in self.points(seed):
            units.append(Unit(point_id(point),
                              _point_runner(run_point, point)))
        return units


def _point_runner(run_point, point):
    return lambda: UnitResult(outputs=run_point(point))


def _stencil_asym(point: dict) -> bool:
    # The anisotropic-face Dragonfly+ points: persist, fixed T=2/8/32
    # and per-edge bandits.  The scaling points are tiny and skipped.
    return "topology" in point["params"]


#: The level-2 ranking designs kept: persist and the congested-best T=4.
#: T=8 and T=16 repeat the same herd at the same cost; with them one
#: untraced plus one traced pass would take well over two minutes.
_FLEET_RANK_MODULES = (["persist"],
                       ["fixed", {"n_qps": 2, "n_transport": 4}])


def _fleet_contended(point: dict) -> bool:
    params = point["params"]
    if point["kind"] == "fleet_rank":
        return (params["level"] == 2
                and params["module"] in _FLEET_RANK_MODULES)
    return point["kind"] in ("fleet", "fleet_autotune")


# ---------------------------------------------------------- plan service

#: Session shape: distinct keys, Zipf exponent, cache smaller than the
#: key set (so reads hit both cache and backend), commit share, and the
#: share of commits sent with a stale version on purpose.  Commits are
#: kept to 2% because their file-system latency swings by a third from
#: run to run on a shared host, which at 10% would set the spread of
#: every time metric of this workload.
SERVICE_KEYS = 512
SERVICE_ZIPF = 1.1
SERVICE_CACHE = 96
SERVICE_COMMIT = 0.02
SERVICE_STALE = 0.10
SERVICE_SESSIONS = 4
SERVICE_OPS = 5000
SERVICE_SHARDS = 8


def _service_key(k: int) -> dict:
    from repro.autotune.store import workload_key

    n_user = 2 ** (k % 6 + 3)
    return workload_key(n_user, n_user * 4096, f"perfbench-{k // 6}",
                        plan_space="perfbench/v1")


def _service_choices() -> list:
    """The plans clients commit: key ``k`` at version ``v`` gets
    ``choices[(k + v) % len(choices)]``, so every commit changes it."""
    from repro.autotune.policy import PlanChoice

    return [PlanChoice(n_transport=2 ** (i % 4 + 1), n_qps=i % 3 + 1)
            for i in range(12)]


def service_ops(seed: int, session: int) -> list:
    """The op stream of one session: ``(op, key index)`` pairs.

    ``op`` is ``"get"``, ``"commit"`` or ``"stale"`` (a CAS commit sent
    with an outdated version, which the service must reject).

    The access pattern (the sequence of op kinds and Zipf popularity
    ranks) is the same for every seed; the seed draws which key holds
    which rank.  Relabelling keys leaves the cache's hits, misses and
    evictions unchanged, so every seed gives the service the same amount
    of work on different keys.  Drawing the pattern from the seed too
    made the work differ by up to a tenth between seeds.
    """
    import numpy as np

    pattern = np.random.default_rng(session)
    ranks = np.arange(1, SERVICE_KEYS + 1, dtype=float)
    weights = ranks ** -SERVICE_ZIPF
    hot = pattern.choice(SERVICE_KEYS, size=SERVICE_OPS,
                         p=weights / weights.sum())
    draws = pattern.random(SERVICE_OPS)
    labels = np.random.default_rng(variant_of(seed)).permutation(
        SERVICE_KEYS)
    ops = []
    for k, u in zip(labels[hot].tolist(), draws.tolist()):
        if u < SERVICE_COMMIT * SERVICE_STALE:
            ops.append(("stale", k))
        elif u < SERVICE_COMMIT:
            ops.append(("commit", k))
        else:
            ops.append(("get", k))
    return ops


def open_service(root: str):
    from repro.serve import TuningService

    return TuningService(root, n_shards=SERVICE_SHARDS,
                         cache_capacity=SERVICE_CACHE)


def run_session(ops: list, keys: list, choices: list,
                tmp: str) -> UnitResult:
    """Drive one closed-loop client session against a fresh service.

    A get fails if it returns anything but the version (and plan) the
    client last committed; a commit fails if it is rejected, and a
    stale commit fails if it is accepted.  A final audit reads every
    key the session committed and fails any whose update was lost.
    """
    root = tempfile.mkdtemp(prefix="service-", dir=tmp)
    try:
        service = open_service(root)
        clock = time.perf_counter_ns
        expected: dict[int, int] = {}
        lat = {"get": [], "commit": []}
        versions = []
        failed = 0
        for op, k in ops:
            have = expected.get(k, 0)
            key = keys[k]
            if op == "get":
                t0 = clock()
                entry = service.get(key)
                lat["get"].append(clock() - t0)
                version = entry.version if entry is not None else 0
                if version != have or (
                        entry is not None and entry.choice
                        != choices[(k + version) % len(choices)]):
                    failed += 1
            else:
                stale = op == "stale" and have > 0
                choice = choices[(k + have + 1) % len(choices)]
                t0 = clock()
                result = service.commit(
                    key, choice, meta={"rounds_observed": k % 9 + 1},
                    expect_version=have - 1 if stale else have)
                lat["commit"].append(clock() - t0)
                if result.committed == stale:
                    failed += 1
                if result.committed:
                    expected[k] = result.entry.version
                version = result.entry.version
            versions.append(version)
        for k, have in expected.items():
            entry = service.store.read(keys[k])
            if entry is None or entry.version != have:
                failed += 1
        stats = service.stats()
        facts = {"cache_hits": stats["cache"]["hits"]
                 + stats["cache"]["negative_hits"],
                 "cache_lookups": stats["cache"]["hits"]
                 + stats["cache"]["negative_hits"]
                 + stats["cache"]["misses"],
                 "conflicts": stats["conflicts"]}
        return UnitResult(outputs=versions,
                          attempted=len(ops) + len(expected),
                          failed=failed, latencies_ns=lat, facts=facts)
    finally:
        shutil.rmtree(root, ignore_errors=True)


@dataclass(frozen=True)
class ServiceWorkload:
    name: str = "plan_service"

    def host_clock(self, tmp: str) -> HostClock:
        return HostClock(functools.partial(service_reference_kernel, tmp),
                         SERVICE_REF_NOMINAL_S)

    def setup(self, seed: int, tmp: str) -> list[Unit]:
        keys = [_service_key(k) for k in range(SERVICE_KEYS)]
        choices = _service_choices()
        streams = [service_ops(seed, s) for s in range(SERVICE_SESSIONS)]
        # Opening a service (manifest, shard directories) is set-up.
        root = tempfile.mkdtemp(prefix="open-", dir=tmp)
        open_service(root)
        shutil.rmtree(root, ignore_errors=True)
        return [Unit(f"session-{s}",
                     _session_runner(ops, keys, choices, tmp),
                     has_expected=False)
                for s, ops in enumerate(streams)]


def _session_runner(ops, keys, choices, tmp):
    return lambda: run_session(ops, keys, choices, tmp)


WORKLOADS = {
    w.name: w for w in (
        DesWorkload("halo_stencil", "ext_stencil", ("repro.coll",),
                    select=_stencil_asym, n_points=5),
        DesWorkload("fleet_contended", "ext_fleet", ("repro.fleet",),
                    select=_fleet_contended, n_points=6),
        ServiceWorkload(),
    )
}


def get_workload(name: str):
    try:
        return WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; "
                         f"have {', '.join(WORKLOADS)}") from None
