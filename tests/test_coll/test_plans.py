"""Tests for per-edge transport-plan resolution.

The single-choice forms (None, plan, aggregator, spec, factory) are
:func:`repro.plan.resolve`'s, tested in ``tests/test_plan``.
"""

from repro.coll import edge_modules, per_edge_autotuners
from repro.core.module import NativeSpec
from repro.mpi.persist_module import PersistSpec


def test_per_neighbor_callable_gets_the_neighbor():
    seen = []

    def module_for(neighbor):
        seen.append(neighbor)
        return None

    resolve = edge_modules(module_for)
    assert isinstance(resolve(4), PersistSpec)
    assert isinstance(resolve(9), PersistSpec)
    assert seen == [4, 9]


def test_per_edge_autotuners_are_independent():
    resolve = per_edge_autotuners({"policy": "bandit", "counts": [1, 2]})
    a, b = resolve(1), resolve(2)
    assert isinstance(a, NativeSpec) and isinstance(b, NativeSpec)
    assert a.aggregator is not b.aggregator


def test_per_edge_autotuners_store_keys_include_neighbor(tmp_path):
    from repro.autotune import TuningStore

    store = TuningStore(tmp_path / "store")
    resolve = per_edge_autotuners(
        {"policy": "bandit", "counts": [1, 2]}, store=store)
    assert resolve(3).aggregator.key_extra.get("neighbor") == 3
    assert resolve(5).aggregator.key_extra.get("neighbor") == 5
