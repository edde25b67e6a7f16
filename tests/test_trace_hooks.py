"""The benchmark's traced functions must stay plain, resolvable functions,
and every name its workloads use must stay importable.

``perfbench/layers.py`` finds each traced function by the code object of
the name it looks up; a renamed function, or one wrapped by a decorator
such as ``functools.cache``, would make every ``--trace`` run fail.
``perfbench/workloads.py`` imports public names of ``affine_hecke`` and
reads module attributes; removing one would fail every benchmark run.
"""

import importlib
import os
import random

import pytest

from affine_hecke.laurent import QINV

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        yield importlib.import_module("layers")


def test_every_traced_function_resolves(layers):
    targets = {**layers.COUNTS, **layers.CUMULATIVE}
    assert targets
    for metric, (layer, qualname) in targets.items():
        assert layers._resolve(layer, qualname) is not None, metric


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(PERFBENCH)
        yield importlib.import_module("workloads")


def test_benchmark_workloads_import_and_check_induction(workloads):
    def call(name, fn, *args):
        return fn(*args)

    v = workloads.trivial_module(1)
    for pair in ((v, v), (workloads.one_dimensional(1, None, QINV), workloads.trivial_module(2))):
        assert workloads.induction_op(pair, call, wrong=False) is True
        assert workloads.induction_op(pair, call, wrong=True) is False


def test_benchmark_rank2_op_checks_its_answer(workloads):
    """rank2_op compares LaurentPoly coefficients by ==, so a kernel
    equality bug fails here rather than as failed benchmark ops."""

    def call(name, fn, *args):
        return fn(*args)

    for pair in workloads.rank2_round(random.Random(3), size=6):
        assert workloads.rank2_op(pair, call, wrong=False) is True
        assert workloads.rank2_op(pair, call, wrong=True) is False
