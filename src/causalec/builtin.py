"""Bundled scenario documents: the five-server worked example and the four
scripted propagation/read scenarios derived from it.

The example stores three objects on five servers as
``x1, x2, x1+x2+x3, x1+x2, x3`` over GF(7); its minimal recovery sets are
R1={{1},{2,4},{2,3,5}}, R2={{2},{1,4},{1,3,5}}, R3={{5},{3,4},{1,2,3}}.
The bundled edge weights reproduce the reference latency profile exactly:
coded worst case 4.5 and average 2.83, the alternate code's average 2.7,
and a replication baseline of worst case 6 with average 2.8.

This module is the single source of the bundled scenarios: the files under
``scenarios/`` are ``causalec scenarios`` output from ``BUNDLED``.
"""

from __future__ import annotations

FIG1_COEFFS = [
    [1, 0, 0],
    [0, 1, 0],
    [1, 1, 1],
    [1, 1, 0],
    [0, 0, 1],
]

# alternate placement with a cheaper average: x1, x2, x2, x1+x3, x3
ALT_COEFFS = [
    [1, 0, 0],
    [0, 1, 0],
    [0, 1, 0],
    [1, 0, 1],
    [0, 0, 1],
]

FIG1_EDGES = [
    [1, 2, 4.5],
    [1, 3, 3.5],
    [1, 4, 2.9],
    [1, 5, 10.0],
    [2, 3, 6.0],
    [2, 4, 6.0],
    [2, 5, 3.975],
    [3, 4, 10.5],
    [3, 5, 3.65],
    [4, 5, 3.025],
]


# each document gets its own copy of the rows, so editing one leaves the
# module constants alone
def fig1_code_doc(value_len: int = 1) -> dict:
    return {"field_p": 7, "value_len": value_len, "coeffs": [list(r) for r in FIG1_COEFFS]}


def alt_code_doc(value_len: int = 1) -> dict:
    return {"field_p": 7, "value_len": value_len, "coeffs": [list(r) for r in ALT_COEFFS]}


def fig1_graph_doc() -> dict:
    return {"n": 5, "edges": [list(e) for e in FIG1_EDGES]}


def fig1_scenario_doc() -> dict:
    """Randomized workload on the worked-example system."""
    return {
        "name": "fig1",
        "code": fig1_code_doc(),
        "latency_graph": fig1_graph_doc(),
        "protocol": "causalec",
        "clients": [{"id": i, "home": i} for i in range(1, 6)],
        "workload": {"kind": "random", "ops": 30, "read_fraction": 0.5,
                     "think_ms": [0, 3000]},
        "delays": {"kind": "jitter", "factor": 2},
        "halts": [],
        "step_cap": 200000,
    }


def appendix_a_scenario_doc() -> dict:
    """Same graph, the alternate code with the lower average latency."""
    doc = fig1_scenario_doc()
    doc["name"] = "appendix_a"
    doc["code"] = alt_code_doc()
    return doc


def _scripted(name: str, ops: list, channel_extra=None, halts=None) -> dict:
    return {
        "name": name,
        "code": fig1_code_doc(),
        "latency_graph": fig1_graph_doc(),
        "protocol": "causalec",
        "clients": [{"id": 1, "home": 1}, {"id": 2, "home": 2}, {"id": 3, "home": 3}],
        "workload": {"kind": "script", "ops": ops},
        "delays": {"kind": "graph"},
        "halts": halts or [],
        "channel_extra": channel_extra or [],
        "step_cap": 200000,
    }


def encoding_scenario_1_doc() -> dict:
    """Writes whose propagation out of server 1 is held up, so its history
    list has to retain the versions until the fan-out lands."""
    ops = [
        {"time": 0.0, "client": 1, "op": "write", "object": 1, "value": 1},
        {"time": 0.5, "client": 1, "op": "write", "object": 1, "value": 2},
        {"time": 1.0, "client": 1, "op": "write", "object": 1, "value": 3},
        {"time": 1.5, "client": 1, "op": "write", "object": 3, "value": 1},
        {"time": 2.0, "client": 1, "op": "write", "object": 3, "value": 2},
        {"time": 0.0, "client": 2, "op": "write", "object": 2, "value": 1},
        {"time": 0.5, "client": 2, "op": "write", "object": 2, "value": 2},
        {"time": 1.0, "client": 2, "op": "write", "object": 2, "value": 3},
        {"time": 1.5, "client": 2, "op": "write", "object": 2, "value": 4},
    ]
    extra = [{"from": 1, "to": j, "extra": 50.0} for j in (2, 3, 4, 5)]
    return _scripted("encoding_scenario_1", ops, channel_extra=extra)


def encoding_scenario_2_doc() -> dict:
    """A later write reaches server 3 while the previous version is still in
    its history list, so the codeword symbol is re-encoded in place."""
    ops = [
        {"time": 0.0, "client": 1, "op": "write", "object": 1, "value": 1},
        {"time": 0.5, "client": 1, "op": "write", "object": 1, "value": 2},
        {"time": 0.0, "client": 2, "op": "write", "object": 2, "value": 1},
        {"time": 0.5, "client": 2, "op": "write", "object": 2, "value": 2},
        {"time": 1.0, "client": 2, "op": "write", "object": 2, "value": 3},
        {"time": 1.5, "client": 2, "op": "write", "object": 3, "value": 1},
        {"time": 8.0, "client": 2, "op": "write", "object": 2, "value": 4},
    ]
    return _scripted("encoding_scenario_2", ops)


def read_scenario_1_doc() -> dict:
    """Version skew both ways: server 4 misses the latest X2 writes, servers
    1, 2 and 5 are down by read time, and a read of X3 at server 3 must
    still decode from the {3,4} recovery set."""
    ops = [
        {"time": 0.0, "client": 1, "op": "write", "object": 1, "value": 1},
        {"time": 0.5, "client": 1, "op": "write", "object": 1, "value": 2},
        {"time": 1.0, "client": 1, "op": "write", "object": 3, "value": 1},
        {"time": 0.0, "client": 2, "op": "write", "object": 2, "value": 1},
        {"time": 0.5, "client": 2, "op": "write", "object": 2, "value": 2},
        # later X2 versions that will not reach server 4 in time
        {"time": 30.0, "client": 2, "op": "write", "object": 2, "value": 3},
        {"time": 30.5, "client": 2, "op": "write", "object": 2, "value": 4},
        {"time": 51.0, "client": 3, "op": "read", "object": 3},
    ]
    # long enough to keep the new X2 versions away from server 4 until the
    # read has been answered, short enough that the earlier delete notices
    # still arrive and empty server 4's X3 history before the inquiry
    extra = [{"from": 2, "to": 4, "extra": 30.0}]
    halts = [{"server": 1, "time": 50.0},
             {"server": 2, "time": 50.0},
             {"server": 5, "time": 50.0}]
    return _scripted("read_scenario_1", ops, channel_extra=extra, halts=halts)


def read_scenario_2_doc() -> dict:
    """A read of X3 at server 1, which never stores X3: it completes from the
    {3,4} responses while server 1 tracks X2 versions as metadata only."""
    ops = [
        {"time": 0.0, "client": 1, "op": "write", "object": 1, "value": 1},
        {"time": 0.5, "client": 1, "op": "write", "object": 1, "value": 2},
        {"time": 0.0, "client": 2, "op": "write", "object": 2, "value": 1},
        {"time": 0.5, "client": 2, "op": "write", "object": 2, "value": 2},
        {"time": 1.0, "client": 2, "op": "write", "object": 3, "value": 1},
        {"time": 51.0, "client": 1, "op": "read", "object": 3},
    ]
    return _scripted("read_scenario_2", ops)


def differential_scenario_doc() -> dict:
    """Dependent writes delivered out of order at a third server: the causal
    variant withholds them, the eventual variant serves them immediately.
    Run under both protocols with the same seed to compare verdicts."""
    return {
        "name": "ev_differential",
        "code": {"field_p": 7, "value_len": 1, "coeffs": [[1, 0], [0, 1], [1, 1]]},
        "latency_graph": {"n": 3, "edges": [[1, 2, 1.0], [1, 3, 100.0], [2, 3, 1.0]]},
        "protocol": "causalec",
        "clients": [{"id": 1, "home": 1}, {"id": 2, "home": 2}, {"id": 3, "home": 3}],
        "workload": {"kind": "script", "ops": [
            {"time": 0.0, "client": 1, "op": "write", "object": 1, "value": 3},
            {"time": 5.0, "client": 2, "op": "read", "object": 1},
            {"time": 6.0, "client": 2, "op": "write", "object": 2, "value": 5},
            {"time": 10.0, "client": 3, "op": "read", "object": 2},
            {"time": 12.0, "client": 3, "op": "read", "object": 1},
        ]},
        "delays": {"kind": "graph"},
        "halts": [],
        "step_cap": 200000,
    }


SCRIPTED_SCENARIOS = {
    "encoding_scenario_1": encoding_scenario_1_doc,
    "encoding_scenario_2": encoding_scenario_2_doc,
    "read_scenario_1": read_scenario_1_doc,
    "read_scenario_2": read_scenario_2_doc,
}

BUNDLED = dict(SCRIPTED_SCENARIOS,
               fig1=fig1_scenario_doc,
               appendix_a=appendix_a_scenario_doc,
               ev_differential=differential_scenario_doc)
