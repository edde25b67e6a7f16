"""The benchmark's traced functions must stay plain, resolvable functions.

``perfbench/layers.py`` finds each traced function by the code object of
the name it looks up; a renamed function, or one wrapped by a decorator
such as ``functools.cache``, would make every ``--trace`` run fail.
"""

import importlib
import os

import pytest

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
