"""Guards for the offline tools in ``tools/``, which nothing else runs.

``tools/fit_fig1_weights.py`` produced ``builtin.FIG1_EDGES``; a full search
takes minutes, so these tests check its fixed parts and its final step (every
weight frozen, no free coordinate left), which once crashed.
"""

import importlib.util
import os

import pytest

from causalec.builtin import FIG1_EDGES

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "fit_fig1_weights.py")


@pytest.fixture(scope="module")
def fit():
    pytest.importorskip("scipy")
    spec = importlib.util.spec_from_file_location("fit_fig1_weights", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_are_the_committed_edge_endpoints(fit):
    assert fit.PAIRS == [(i, j) for i, j, _ in FIG1_EDGES]


def test_committed_weights_solve_the_target_with_nothing_free(fit):
    weights = [w for _, _, w in FIG1_EDGES]
    fun, full = fit.solve_free([1.0] * 10, dict(enumerate(weights)))
    assert fun < 1e-15
    assert list(full) == weights
