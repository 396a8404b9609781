"""Property: any edit to the leaves of a code document loads or fails cleanly.

Each example takes fig1's scenario document and replaces one to three
leaves of its ``code`` sub-document (``field_p``, ``value_len`` or a
coefficient) with arbitrary JSON.  Loading must either raise a
``ScenarioError`` that names the code, or give a code from which every
server can be built and a zero vector encoded.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from causalec import builtin  # noqa: E402
from causalec.checker import check_all  # noqa: E402
from causalec.scenarios import ScenarioError, scenario_from_json  # noqa: E402
from causalec.server import Server  # noqa: E402
from causalec.simnet import run  # noqa: E402

CODE_LEAVES = [("field_p",), ("value_len",)] + [
    ("coeffs", i, j) for i, row in enumerate(builtin.FIG1_COEFFS) for j in range(len(row))]

# Integers stay small: a well-formed but huge field_p or value_len is a legal
# input whose cost grows with it, not a malformed one.
LEAF = (st.none() | st.booleans() | st.integers(-2, 12) | st.integers(-300, 300)
        | st.floats() | st.text(max_size=3))
JSON = LEAF | st.lists(LEAF, max_size=3) | st.dictionaries(st.text(max_size=2), LEAF, max_size=2)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(CODE_LEAVES), JSON), min_size=1, max_size=3))
def test_code_leaf_edits_load_or_name_the_code(edits):
    doc = builtin.fig1_scenario_doc()
    for path, value in edits:
        node = doc["code"]
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    try:
        scenario = scenario_from_json(doc)
    except ScenarioError as e:
        assert str(e).startswith("code"), str(e)
        return
    code = scenario.code
    for sid in range(1, code.n + 1):
        Server(sid, code, scenario.protocol)
    zero = code.zero_value()
    assert code.encode([zero] * code.k) == [zero] * code.n


# Every top-level field the loader reads; fig1's document leaves out the last two.
TOP_LEVEL = sorted(builtin.fig1_scenario_doc()) + ["channel_extra", "fairness"]
DELETE = object()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(TOP_LEVEL), JSON | st.just(DELETE)),
                min_size=1, max_size=3))
def test_top_level_edits_load_or_name_the_field(edits):
    doc = builtin.fig1_scenario_doc()
    for key, value in edits:
        if value is DELETE:
            doc.pop(key, None)
        else:
            doc[key] = value
    try:
        scenario = scenario_from_json(doc)
    except ScenarioError as e:
        assert str(e).startswith(tuple(key for key, _ in edits)), str(e)
        return
    scenario.step_cap = min(scenario.step_cap, 2000)
    check_all(run(scenario, 0, probes=True))
