"""Property: any edit to the leaves of a code document loads or fails cleanly.

Each example takes fig1's scenario document and replaces one to three
leaves of its ``code`` sub-document (``field_p``, ``value_len`` or a
coefficient) with arbitrary JSON.  Loading must either raise a
``ScenarioError`` that names the code, or give a code from which every
server can be built and a zero vector encoded.  The same holds for
whole-value edits of top-level fields and for edits of the leaves below
them, where a scenario that loads must also run and be checked.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

import bundled  # noqa: E402
from causalec.checker import check_all  # noqa: E402
from causalec.scenarios import ScenarioError, scenario_from_json  # noqa: E402
from causalec.server import Server  # noqa: E402
from causalec.simnet import run  # noqa: E402

CODE_LEAVES = [("field_p",), ("value_len",)] + [
    ("coeffs", i, j) for i, row in enumerate(bundled.FIG1_COEFFS) for j in range(len(row))]

# Integers stay small: a well-formed but huge field_p or value_len is a legal
# input whose cost grows with it, not a malformed one.
LEAF = (st.none() | st.booleans() | st.integers(-2, 12) | st.integers(-300, 300)
        | st.floats() | st.text(max_size=3))
JSON = LEAF | st.lists(LEAF, max_size=3) | st.dictionaries(st.text(max_size=2), LEAF, max_size=2)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(CODE_LEAVES), JSON), min_size=1, max_size=3))
def test_code_leaf_edits_load_or_name_the_code(edits):
    doc = bundled.doc("fig1")
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


# Every top-level field the loader reads (fig1's document lacks channel_extra),
# plus fairness, an unknown field that the loader rejects.
TOP_LEVEL = sorted(bundled.doc("fig1")) + ["channel_extra", "fairness"]
DELETE = object()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(TOP_LEVEL), JSON | st.just(DELETE)),
                min_size=1, max_size=3))
def test_top_level_edits_load_or_name_the_field(edits):
    doc = bundled.doc("fig1")
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


# A scripted scenario with halts and channel_extra, under each delay kind, so
# every nested leaf the loader reads below the top level is present.
def _nested_base(delays):
    doc = bundled.doc("read_scenario_1")
    doc["delays"] = delays
    return doc


NESTED_BASES = [{"kind": "graph"}, {"kind": "jitter", "factor": 2}]
_BASE = _nested_base(NESTED_BASES[0])
# the leaves below each top-level field, drawn field first so the many
# latency_graph edge entries do not crowd out the rest
NESTED_LEAVES = {
    "clients": [("clients", i, f) for i in range(len(_BASE["clients"]))
                for f in ("id", "home")],
    "workload": [("workload", "ops", i, f) for i in range(len(_BASE["workload"]["ops"]))
                 for f in ("time", "client", "object", "value")],
    "delays": [("delays", key) for key in ("kind", "factor", "min", "max")],
    "halts": [("halts", i, f) for i in range(len(_BASE["halts"])) for f in ("server", "time")],
    "latency_graph": [("latency_graph", "edges", i, j)
                      for i in range(len(_BASE["latency_graph"]["edges"])) for j in range(3)],
}
NESTED_LEAF = st.sampled_from(sorted(NESTED_LEAVES)).flatmap(
    lambda field: st.sampled_from(NESTED_LEAVES[field]))
# plausible values, so that edits often load and run, values at the edge of
# float range, and arbitrary JSON
NESTED_VALUE = (st.sampled_from([1, 2, 3, 5, 0.5, "jitter", "uniform"])
                | st.sampled_from([1e300, 1e306, 1e308, float("inf")]) | JSON)


# One edit per example: with more, one that fails to load masks the rest,
# and too few examples reach a run.  The explicit examples are delay
# arithmetic that overflowed a float in the run before the loader bounded it.
@example(NESTED_BASES[1], ("delays", "factor"), float("inf"))
@example(NESTED_BASES[1], ("delays", "factor"), 1e308)
@example(NESTED_BASES[1], ("latency_graph", "edges", 0, 2), 1e306)
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.sampled_from(NESTED_BASES), NESTED_LEAF, NESTED_VALUE)
def test_nested_leaf_edits_load_or_name_the_field(delays, path, value):
    doc = _nested_base(dict(delays))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    fields = (path[0],)
    if path[0] == "clients":
        # the script ops name clients by id, so a client whose id changed
        # leaves its ops referring to an unknown client
        fields += ("workload.ops: script references unknown client",)
    try:
        scenario = scenario_from_json(doc)
    except ScenarioError as e:
        assert str(e).startswith(fields), str(e)
        return
    scenario.step_cap = min(scenario.step_cap, 2000)
    check_all(run(scenario, 0, probes=True))
