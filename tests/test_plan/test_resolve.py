"""``repro.plan.resolve``: every module-choice form to one ModuleSpec."""

import pytest

from repro.core import FixedAggregation, PLogGPAggregator
from repro.core.module import NativeSpec
from repro.model.tables import NIAGARA_LOGGP
from repro.mpi.persist_module import PersistSpec
from repro.plan import leaf_plan, resolve
from repro.units import ms

AGG = PLogGPAggregator(NIAGARA_LOGGP, delay=ms(4))
SPEC = PersistSpec()


def _counting_factory():
    made = []

    def factory():
        made.append(PersistSpec())
        return made[-1]

    factory.made = made
    return factory


def _check_none(module, first, second):
    assert isinstance(first, PersistSpec)
    assert first is not second


def _check_plan(module, first, second):
    assert isinstance(first, NativeSpec)
    assert isinstance(first.aggregator, FixedAggregation)
    assert (first.aggregator.n_transport, first.aggregator.n_qps) == (8, 2)


def _check_aggregator(module, first, second):
    assert isinstance(first, NativeSpec)
    assert first is not second
    # Stateless static aggregators are shared by every spec built on them.
    assert first.aggregator is module and second.aggregator is module


def _check_spec(module, first, second):
    assert first is module and second is module


def _check_factory(module, first, second):
    assert first is not second
    assert module.made == [first, second]


#: form -> (build the module choice, check two resolutions of it).
FORMS = {
    "none": (lambda: None, _check_none),
    "plan": (lambda: leaf_plan(8, 2), _check_plan),
    "aggregator": (lambda: AGG, _check_aggregator),
    "spec": (lambda: SPEC, _check_spec),
    "factory": (_counting_factory, _check_factory),
    "garbage": (object, None),
}


@pytest.mark.parametrize("form", list(FORMS))
def test_resolve(form):
    make, check = FORMS[form]
    module = make()
    if check is None:
        with pytest.raises(TypeError, match="cannot resolve"):
            resolve(module)
        return
    check(module, resolve(module), resolve(module))
