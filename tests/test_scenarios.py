"""Scenario parsing/validation and the bundled scripted scenarios.

Each scripted scenario stages one of the propagation situations the design
has to survive; the tests assert the staged mechanism actually fired, not
just that the run ended well.
"""

import dataclasses
import json
import re

import pytest

import bundled
from causalec.checker import all_passed, check_all
from causalec.coding import LinearCode
from causalec.field import PrimeField
from causalec.harness import main
from causalec.latency import LatencyGraph
from causalec.messages import ValInq
from causalec import scenarios
from causalec.scenarios import (
    PROBE_CLIENT_BASE, ClientSpec, RandomWorkload, Scenario, ScenarioError, ScriptOp,
    scenario_from_json)
from causalec.simnet import run
from causalec.tags import Tag


def run_doc(doc, seed=0, **kw):
    sc = scenario_from_json(doc)
    return run(sc, seed, probes=True, collect_trace=True, **kw)


def decode_notes(result):
    return [(rec.node, note) for rec in result.trace
            for note in rec.notes if note[0] == "decoded"]


def client_reads(result):
    return [op for op in result.operation_list()
            if op.kind == "read" and not op.probe]


def write_tag(result, obj, value):
    """The tag the home server gave the one write of value to obj."""
    (t,) = [Tag(op.ts, op.client) for op in result.ops.values()
            if op.kind == "write" and op.obj == obj and op.value == value]
    return t


def _set(path, value, name="fig1"):
    """A bundled document with the field at path (keys and indices) replaced."""
    def build():
        doc = bundled.doc(name)
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return build


def _zero_coeffs():
    doc = bundled.doc("fig1")
    doc["code"]["coeffs"] = [[0] * len(row) for row in doc["code"]["coeffs"]]
    return doc


def _one_server():
    return {"code": {"field_p": 7, "coeffs": [[1]]}, "latency_graph": {"n": 1, "edges": []},
            "clients": [{"id": 1, "home": 1}], "workload": {"kind": "random", "ops": 5}}


def _repeated_edge(second):
    """A three-server document whose last edge lists a pair a second time."""
    return lambda: {
        "code": {"field_p": 7, "coeffs": [[1], [1], [1]]},
        "latency_graph": {"n": 3, "edges": [[1, 2, 1], [1, 3, 1], [2, 3, 1], second]},
        "clients": [{"id": 1, "home": 1}], "workload": {"kind": "random", "ops": 5}}


# (malformed document, the field path its ScenarioError must start with)
MALFORMED = {
    # the loader kept the last weight: (2,3) ran at 2
    "edge_listed_twice": (_repeated_edge([2, 3, 2]),
                          r"latency_graph\.edges\[3\]: edge \(2,3\) listed twice"),
    "edge_listed_twice_reversed": (_repeated_edge([3, 2, 1]),
                                   r"latency_graph\.edges\[3\]: edge \(3,2\) listed twice"),
    # GC dropped the lone symbol's version, and the fetch to re-encode went to
    # no other server: a read stayed pending and the storage verdict failed
    "one_server": (_one_server, r"latency_graph\.n: a store needs at least 2 servers"),
    "home_not_int": (_set(["clients", 0, "home"], "x"), r"clients\[0\]\.home:"),
    "id_not_int": (_set(["clients", 0, "id"], "y"), r"clients\[0\]\.id:"),
    "halt_server_not_int": (
        _set(["halts"], [{"server": "a", "time": 1}]), r"halts\[0\]\.server:"),
    "channel_from_not_int": (
        _set(["channel_extra"], [{"from": "q", "to": 2, "extra": 1}]),
        r"channel_extra\[0\]\.from:"),
    "step_cap_not_int": (_set(["step_cap"], "abc"), r"step_cap:"),
    # a field the loader does not read, such as the retired fairness window
    "unknown_top_level_field": (_set(["fairness"], 40), r"fairness:"),
    "halt_time_too_fine": (
        _set(["halts"], [{"server": 2, "time": 0.0001}]), r"halts\[0\]\.time:"),
    "channel_extra_too_fine": (
        _set(["channel_extra"], [{"from": 1, "to": 2, "extra": 0.0001}]),
        r"channel_extra\[0\]\.extra:"),
    "op_time_too_fine": (
        _set(["workload", "ops", 0, "time"], 0.0001, "read_scenario_2"),
        r"workload\.ops\[0\]\.time:"),
    "op_object_out_of_range": (
        _set(["workload", "ops", 0, "object"], 7, "read_scenario_2"),
        r"workload\.ops\[0\]\.object:"),
    "op_not_an_object": (
        _set(["workload", "ops", 0], 5, "read_scenario_2"), r"workload\.ops\[0\]:"),
    # a read's value was dropped unread
    "read_op_with_value": (
        _set(["workload", "ops", 5, "value"], 3, "read_scenario_2"),
        r"workload\.ops\[5\]\.value: a read has no value"),
    "op_value_not_int": (
        _set(["workload", "ops", 0, "value"], "abc", "read_scenario_2"),
        r"workload\.ops\[0\]\.value:"),
    # the loader reduced a document's value mod p: 9 ran as (2,), [-1] as (6,)
    "op_value_outside_field": (
        _set(["workload", "ops", 3, "value"], 9, "read_scenario_2"),
        r"workload\.ops\[3\]\.value: must be a tuple of value_len 1 integers in 0\.\.6"),
    "op_value_negative": (
        _set(["workload", "ops", 0, "value"], [-1], "read_scenario_2"),
        r"workload\.ops\[0\]\.value:"),
    "read_op_with_null_value": (
        _set(["workload", "ops", 5, "value"], None, "read_scenario_2"),
        r"workload\.ops\[5\]\.value: a read has no value"),
    # the probe clients' ids: such a client's ops were taken for probes
    "client_id_in_probe_range": (_set(["clients", 0, "id"], 1_000_001),
                                 r"clients\[0\]\.id: must be in 1\.\.999999"),
    "code_unrecoverable": (_zero_coeffs, r"code:"),
    "code_not_an_object": (_set(["code"], 5), r"code:"),
    "field_p_not_int": (_set(["code", "field_p"], "7"), r"code\.field_p:"),
    "value_len_not_int": (_set(["code", "value_len"], 1.5), r"code\.value_len:"),
    "coeffs_not_a_matrix": (_set(["code", "coeffs"], "ab"), r"code\.coeffs:"),
    "coeffs_rows_ragged": (_set(["code", "coeffs", 1], [1]), r"code\.coeffs:"),
    "coeff_not_int": (_set(["code", "coeffs", 0, 1], 1.5), r"code\.coeffs\[0\]\[1\]:"),
    "channel_from_out_of_range": (
        _set(["channel_extra"], [{"from": 9, "to": 2, "extra": 1}]),
        r"channel_extra\[0\]\.from:"),
    "channel_to_out_of_range": (
        _set(["channel_extra"], [{"from": 1, "to": 2, "extra": 1},
                                 {"from": 1, "to": 9, "extra": 1}]),
        r"channel_extra\[1\]\.to:"),
    "channel_extra_duplicate": (
        _set(["channel_extra"], [{"from": 1, "to": 2, "extra": 1},
                                 {"from": 1, "to": 2, "extra": 3}]), r"channel_extra\[1\]:"),
    "halt_server_out_of_range": (
        _set(["halts"], [{"server": 9, "time": 1}]), r"halts\[0\]\.server:"),
    "halt_server_duplicate": (
        _set(["halts"], [{"server": 2, "time": 1}, {"server": 2, "time": 5}]),
        r"halts\[1\]\.server:"),
    "workload_not_an_object": (_set(["workload"], 5), r"workload:"),
    "clients_not_a_list": (_set(["clients"], 5), r"clients:"),
    "halts_not_a_list": (_set(["halts"], 5), r"halts:"),
    "channel_extra_not_a_list": (_set(["channel_extra"], 5), r"channel_extra:"),
    "latency_graph_not_an_object": (_set(["latency_graph"], 5), r"latency_graph:"),
    "latency_edge_too_short": (
        _set(["latency_graph"], {"n": 5, "edges": [[1, 2]]}), r"latency_graph\.edges\[0\]:"),
    "field_p_too_large": (_set(["code", "field_p"], 2**89 - 1), r"code\.field_p:"),
    "name_is_a_number": (_set(["name"], 5), r"name:"),
    "name_is_a_list": (_set(["name"], [1]), r"name:"),
    "step_cap_is_a_bool": (_set(["step_cap"], True), r"step_cap:"),
    "step_cap_is_a_numeric_string": (_set(["step_cap"], "100"), r"step_cap:"),
    # a cap of 0 allows no step: the run reported ok with no transition
    "step_cap_zero": (_set(["step_cap"], 0), r"step_cap:"),
    "step_cap_negative": (_set(["step_cap"], -1), r"step_cap:"),
    # JSON text may spell NaN, which no range check rejects
    "step_cap_nan": (_set(["step_cap"], float("nan")), r"step_cap: must be a number"),
    "halt_server_nan": (
        _set(["halts"], [{"server": float("nan"), "time": 1}]),
        r"halts\[0\]\.server: must be a number"),
    "random_ops_is_a_bool": (_set(["workload", "ops"], True), r"workload\.ops:"),
    "think_ms_fractional": (
        _set(["workload", "think_ms"], [0.5, 1.7]), r"workload\.think_ms\[0\]:"),
    "think_ms_fractional_low_above_high": (
        _set(["workload", "think_ms"], [1.7, 1.2]), r"workload\.think_ms\[0\]:"),
    # float delay arithmetic overflowed in the run, a traceback from `causalec run`
    "jitter_factor_overflows": (_set(["delays", "factor"], 1e308), r"delays\.factor:"),
    "jitter_factor_infinite": (_set(["delays", "factor"], float("inf")), r"delays\.factor:"),
    "jittered_edge_overflows": (
        _set(["latency_graph", "edges", 0, 2], 1e306), r"latency_graph\.edges\[0\]\[2\]:"),
    # a misspelt nested field loaded and ran with its default in place
    "code_field_unknown": (_set(["code", "valu_len"], 3), r"code\.valu_len: unknown field"),
    "delays_field_unknown": (_set(["delays", "factr"], 3), r"delays\.factr: unknown field"),
    "delays_field_of_another_kind": (
        _set(["delays"], {"kind": "graph", "factor": 2}), r"delays\.factor: unknown field"),
    "workload_field_unknown": (
        _set(["workload", "read_fracton"], 0.9), r"workload\.read_fracton: unknown field"),
    "client_field_unknown": (_set(["clients", 0, "hme"], 2), r"clients\[0\]\.hme: unknown field"),
    "halt_field_unknown": (
        _set(["halts"], [{"server": 2, "time": 1, "x": 0}]), r"halts\[0\]\.x: unknown field"),
    "latency_graph_field_unknown": (
        _set(["latency_graph", "weights"], []), r"latency_graph\.weights: unknown field"),
    "script_op_field_unknown": (
        _set(["workload", "ops", 0, "tme"], 1, "read_scenario_2"),
        r"workload\.ops\[0\]\.tme: unknown field"),
    "channel_extra_field_unknown": (
        _set(["channel_extra"], [{"from": 1, "to": 2, "extra": 1, "delay": 2}]),
        r"channel_extra\[0\]\.delay: unknown field"),
    "client_missing_home": (_set(["clients", 0], {"id": 1}), r"clients\[0\]\.home:"),
    "delays_kind_misspelt": (_set(["delays"], {"kind": "jiter"}), r"delays\.kind:"),
    "delays_kind_uniform_is_gone": (
        _set(["delays"], {"kind": "uniform", "min": 0.5, "max": 3}),
        r"delays\.kind: unknown kind 'uniform'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_field_raises_scenario_error(case):
    build, field_path = MALFORMED[case]
    with pytest.raises(ScenarioError, match="^" + field_path):
        scenario_from_json(build())


def test_cli_exits_two_on_every_malformed_field(tmp_path, capsys):
    for case, (build, field_path) in sorted(MALFORMED.items()):
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(build()))
        for command in (["run", str(path), "--seeds", "0"], ["latency", str(path)]):
            assert main(command) == 2, (case, command[0])
            assert re.search(field_path, capsys.readouterr().err), (case, command[0])


def _fig1(**changes):
    return dataclasses.replace(scenario_from_json(bundled.doc("fig1")), **changes)


def _unrecoverable():
    return Scenario(name="t", code=LinearCode(PrimeField(7), [[1, 1], [1, 1]]),
                    graph=LatencyGraph(2, {(1, 2): 1}), clients=[ClientSpec(1, 1)],
                    scripts={1: [ScriptOp(0, "read", 1)]})


def _k2(**fields):
    """A scenario built in code on a K=2, value_len 1 code over GF(7)."""
    return Scenario(name="t", code=LinearCode(PrimeField(7), [[1, 0], [0, 1]]),
                    graph=LatencyGraph(2, {(1, 2): 1}), clients=[ClientSpec(1, 1)], **fields)


def _op(*args):
    return lambda: _k2(scripts={1: [ScriptOp(0, "read", 1), ScriptOp(*args)]})


# (a scenario built in code, the start of its ScenarioError): the loader's
# rules hold without the loader
BUILT_IN_CODE = {
    # these four ran into a traceback, or ran a delete as a read
    "op_object_out_of_range": (
        _op(0, "read", 3), r"workload\.ops\[client 1\]\[1\]\.object: must be in 1\.\.2, got 3"),
    "op_value_empty": (
        _op(0, "write", 1, ()),
        r"workload\.ops\[client 1\]\[1\]\.value: must be a tuple of value_len 1 "),
    "think_range_empty": (
        lambda: _k2(random_workload=RandomWorkload(ops=3, think_ms=(5, 1))),
        r"workload\.think_ms\[1\]: must be >= 5, got 1"),
    "op_kind_unknown": (
        _op(0, "delete", 1), r"workload\.ops\[client 1\]\[1\]\.op: must be 'read' or 'write'"),
    "op_value_outside_field": (
        _op(0, "write", 1, (7,)), r"workload\.ops\[client 1\]\[1\]\.value: must be a tuple"),
    "op_value_a_list": (
        _op(0, "write", 1, [1]), r"workload\.ops\[client 1\]\[1\]\.value: must be a tuple"),
    "read_with_value": (
        _op(0, "read", 1, (1,)), r"workload\.ops\[client 1\]\[1\]\.value: a read has no value"),
    "op_time_negative": (_op(-1, "read", 1), r"workload\.ops\[client 1\]\[1\]\.time:"),
    "random_ops_negative": (
        lambda: _k2(random_workload=RandomWorkload(ops=-1)), r"workload\.ops: must be"),
    "read_fraction_above_one": (
        lambda: _k2(random_workload=RandomWorkload(ops=3, read_fraction=1.5)),
        r"workload\.read_fraction: must be in 0\.\.1"),
    "code_unrecoverable": (_unrecoverable, r"code: object 1 cannot be recovered"),
    "step_cap_zero": (lambda: _fig1(step_cap=0), r"step_cap: must be >= 1"),
    "halt_server_out_of_range": (
        lambda: _fig1(halts={9: 0}), r"halts\[0\]\.server: must be in 1\.\.5, got 9"),
    "channel_to_out_of_range": (
        lambda: _fig1(channel_extra_ms={(1, 2): 5, (1, 9): 5}), r"channel_extra\[1\]\.to:"),
    "client_id_zero": (lambda: _fig1(clients=[ClientSpec(0, 1)]), r"clients\[0\]\.id:"),
    "client_id_in_probe_range": (
        lambda: _fig1(clients=[ClientSpec(PROBE_CLIENT_BASE, 1)]),
        r"clients\[0\]\.id: must be in 1\.\.999999, got 1000000"),
}


@pytest.mark.parametrize("case", sorted(BUILT_IN_CODE))
def test_scenario_built_in_code_follows_the_loader_rules(case):
    build, message = BUILT_IN_CODE[case]
    with pytest.raises(ScenarioError, match="^" + message):
        build()


def test_each_script_op_is_checked_once(monkeypatch):
    # the loader checked every op, and the scenario it built checked it again
    calls = []
    check_op = scenarios._check_op

    def counted(op, code, path):
        calls.append(path)
        return check_op(op, code, path)

    monkeypatch.setattr(scenarios, "_check_op", counted)
    for name in bundled.NAMES:
        doc = bundled.doc(name)
        ops = doc["workload"]["ops"] if doc["workload"]["kind"] == "script" else []
        calls.clear()
        scenario_from_json(doc)
        assert len(calls) == len(ops) == len(set(calls)), name


@pytest.mark.parametrize("name", ["7", "null"])
def test_file_named_like_json_text_is_read_as_a_path(tmp_path, monkeypatch, capsys, name):
    # such a name was once parsed as the document itself
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(json.dumps(bundled.doc("fig1")))
    assert scenario_from_json(name).name == "fig1"
    assert main(["latency", name]) == 0
    assert main(["run", name, "--seeds", "0"]) == 0


def test_document_that_is_not_an_object_is_named(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1]")
    with pytest.raises(ScenarioError, match=r"^scenario: must be an object, got \[1\]"):
        scenario_from_json(str(path))


class TestValidation:
    def test_missing_code(self):
        with pytest.raises(ScenarioError, match="code"):
            scenario_from_json({"latency_graph": {"n": 1, "edges": []}})

    def test_missing_coeffs_names_field(self):
        doc = bundled.doc("fig1")
        del doc["code"]["coeffs"]
        with pytest.raises(ScenarioError, match="coeffs"):
            scenario_from_json(doc)

    def test_bad_protocol(self):
        doc = bundled.doc("fig1")
        doc["protocol"] = "magic"
        with pytest.raises(ScenarioError, match="protocol"):
            scenario_from_json(doc)

    def test_client_home_out_of_range(self):
        doc = bundled.doc("fig1")
        doc["clients"][0]["home"] = 9
        with pytest.raises(ScenarioError, match=r"clients\[0\].home"):
            scenario_from_json(doc)

    def test_graph_code_size_mismatch(self):
        doc = bundled.doc("fig1")
        doc["latency_graph"] = {"n": 2, "edges": [[1, 2, 1.0]]}
        with pytest.raises(ScenarioError, match="latency_graph"):
            scenario_from_json(doc)

    def test_script_value_must_match_value_len(self):
        doc = bundled.doc("read_scenario_2")
        doc["workload"]["ops"][0]["value"] = [1, 2]
        with pytest.raises(ScenarioError, match="value"):
            scenario_from_json(doc)

    def test_halt_server_out_of_range(self):
        doc = bundled.doc("fig1")
        doc["halts"] = [{"server": 7, "time": 1.0}]
        with pytest.raises(ScenarioError, match="halts"):
            scenario_from_json(doc)

    def test_delays_must_be_an_object(self):
        doc = bundled.doc("fig1")
        doc["delays"] = 5
        with pytest.raises(ScenarioError, match=r"^delays:"):
            scenario_from_json(doc)

    def test_think_range_must_not_be_empty(self):
        doc = bundled.doc("fig1")
        doc["workload"]["think_ms"] = [5, 1]
        with pytest.raises(ScenarioError, match=r"^workload\.think_ms\[1\]:"):
            scenario_from_json(doc)

    def test_think_range_is_held_as_integers(self):
        doc = bundled.doc("fig1")
        doc["workload"]["think_ms"] = [1.0, 3.0]
        think = scenario_from_json(doc).random_workload.think_ms
        assert think == (1, 3) and all(type(t) is int for t in think)

    def test_read_fraction_must_be_a_number(self):
        doc = bundled.doc("fig1")
        doc["workload"]["read_fraction"] = "abc"
        with pytest.raises(ScenarioError, match=r"^workload\.read_fraction:"):
            scenario_from_json(doc)

    def test_halt_time_must_not_be_negative(self):
        doc = bundled.doc("fig1")
        doc["halts"] = [{"server": 2, "time": -3}]
        with pytest.raises(ScenarioError, match=r"^halts\[0\]\.time:"):
            scenario_from_json(doc)

    def test_random_scripts_are_seed_stable(self):
        sc = scenario_from_json(bundled.doc("fig1"))
        assert sc.build_scripts(4) == sc.build_scripts(4)
        assert sc.build_scripts(4) != sc.build_scripts(5)


class TestEncodingScenario1:
    def test_history_retained_until_fanout_lands(self):
        r = run_doc(bundled.doc("encoding_scenario_1"))
        assert r.quiescent and all_passed(check_all(r))
        # while the outbound channels stall, server 1 accumulates versions
        peak = max(sum(rec.digest[2]) for rec in r.trace
                   if rec.node == "s1" and rec.digest)
        assert peak >= 7  # five own writes plus remote ones and sentinels
        # and everything still drains once the writes propagate
        assert all(not lx for lx in r.servers[1].L)


class TestEncodingScenario2:
    def test_symbol_reencoded_in_place(self):
        r = run_doc(bundled.doc("encoding_scenario_2"))
        assert r.quiescent and all_passed(check_all(r))
        t3 = write_tag(r, 2, (3,))
        t4 = write_tag(r, 2, (4,))
        steps = []
        prev = None
        for rec in r.trace:
            if rec.node == "s3" and rec.digest:
                cur = rec.digest[1][1]
                if prev is not None and cur != prev:
                    steps.append((prev, cur, rec.event[0]))
                prev = cur
        assert (t3, t4, "encode") in steps, \
            "server 3 must re-encode straight from the old version to the new"


class TestReadScenario1:
    def test_read_decodes_from_pair_despite_skew(self):
        r = run_doc(bundled.doc("read_scenario_1"))
        assert r.quiescent
        (read,) = client_reads(r)
        assert read.value == (1,)  # the only X3 write
        assert ("s3", ("decoded", 3, (3, 4), read.opid)) in decode_notes(r)
        # the skew was real: server 4 answered before seeing the last X2 writes
        t4 = write_tag(r, 2, (4,))
        resp = next(rec for rec in r.trace
                    if rec.node == "s4" and rec.event[0] == "recv"
                    and isinstance(rec.event[2], ValInq) and rec.event[2].opid == read.opid)
        assert resp.digest[1][1] != t4
        assert all_passed(check_all(r))


class TestReadScenario2:
    def test_read_at_non_holder_uses_metadata_tracking(self):
        r = run_doc(bundled.doc("read_scenario_2"))
        assert r.quiescent and all_passed(check_all(r))
        (read,) = client_reads(r)
        assert read.value == (1,)
        assert ("s1", ("decoded", 3, (3, 4), read.opid)) in decode_notes(r)
        # server 1 stores only X1 yet tracked X2/X3 versions as metadata
        s1 = r.servers[1]
        assert s1.code.objects_at(1) == {1}
        zero = s1.zero_tag
        assert s1.m_tagvec[1] != zero and s1.m_tagvec[2] != zero


class TestScriptedScenarioSuite:
    @pytest.mark.parametrize("name", ["encoding_scenario_1", "encoding_scenario_2",
                                      "read_scenario_1", "read_scenario_2"])
    def test_all_reads_complete_with_written_values(self, name):
        r = run_doc(bundled.doc(name))
        assert r.quiescent
        for op in client_reads(r):
            assert op.completed
        assert all_passed(check_all(r))
