"""Golden trace hashes: a fixed (scenario, seed, protocol) table whose trace
SHA-256s and checker verdicts a behaviour-preserving change must reproduce.

Each entry is one probed run with trace collection on.  ``fig1`` and
``appendix_a`` use jittered delays, so they run seeds 0-9; the scripted
scenarios and ``ev_differential`` use fixed graph delays and hash the same on
every seed, so they run seed 0 only; the acceptance fuzz systems run seeds
0-9.  Every entry runs under both protocol variants.

Every table entry has values of one or three elements over GF(7) or
GF(11).  One more traced run, pinned in ``pinned_runs.json`` beside the
seed-1 benchmark fingerprints, covers dense GF(257) codes with 32-element
values: ``dense_l32_doc`` is an 8-server, 4-object code with every
coefficient nonzero, whose reads after each write burst decode remotely and
re-encode responses.

``python tests/test_golden_traces.py`` prints the table as it stands, for
re-blessing ``golden_traces.json``; a failing pin test shows the value to
write into ``pinned_runs.json``.  Re-bless only together with a
``CHANGES.md`` entry that says which traces changed and why.
"""

import json
import os
import random
import sys

import pytest

import bundled
from causalec.checker import check_all
from causalec.harness import fuzz_scenario
from causalec.scenarios import scenario_from_json
from causalec.server import VARIANTS
from causalec.simnet import run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_traces.json")
PINS = os.path.join(os.path.dirname(GOLDEN), "pinned_runs.json")

JITTERED = ("fig1", "appendix_a")
SEEDS = range(10)


def cases():
    """(key, scenario name, seed, protocol) for every table entry."""
    out = []
    for protocol in VARIANTS:
        for name in bundled.NAMES:
            for seed in (SEEDS if name in JITTERED else (0,)):
                out.append((name, seed, protocol))
        for seed in SEEDS:
            out.append(("fuzz", seed, protocol))
    return [(f"{name}/{protocol}/{seed}", name, seed, protocol)
            for name, seed, protocol in out]


CASES = cases()


def entry(name, seed, protocol):
    if name == "fuzz":
        scenario = fuzz_scenario(seed)
    else:
        scenario = scenario_from_json(bundled.doc(name))
    result = run(scenario, seed, protocol=protocol, probes=True, collect_trace=True)
    return {"sha256": result.trace_sha256(),
            "verdicts": [[v.name, v.passed, v.inconclusive] for v in check_all(result)]}


def table():
    return {key: entry(name, seed, protocol) for key, name, seed, protocol in CASES}


def load_golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


def test_table_covers_every_case():
    assert sorted(load_golden()) == sorted(key for key, *_ in CASES)


@pytest.mark.parametrize("key,name,seed,protocol", CASES, ids=[c[0] for c in CASES])
def test_trace_matches_golden(key, name, seed, protocol):
    assert entry(name, seed, protocol) == load_golden()[key]


def dense_l32_doc():
    """Two phases over a dense N=8, K=4 code on GF(257), value_len 32: a write
    per client, then two reads per client once history has drained, with one
    more write during the reads so responders hold different versions."""
    rng = random.Random(0x1032)
    n, k, p, length = 8, 4, 257, 32
    coeffs = [[rng.randint(1, p - 1) for _ in range(k)] for _ in range(n)]
    edges = [[i, j, rng.randint(1000, 4000) / 1000]
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    ops = []
    t = 0.0
    for phase in range(2):
        for c in range(1, n + 1):
            ops.append({"time": t, "client": c, "op": "write", "object": 1 + (c + phase) % k,
                        "value": [rng.randrange(p) for _ in range(length)]})
        t += 150.0
        for c in range(1, n + 1):
            for r in range(2):
                ops.append({"time": t + 25.0 * r, "client": c, "op": "read",
                            "object": 1 + (c + r) % k})
        ops.append({"time": t + 10.0, "client": 1 + phase, "op": "write", "object": 1 + phase,
                    "value": [rng.randrange(p) for _ in range(length)]})
        t += 250.0
    return {"name": "dense_gf257_l32",
            "code": {"field_p": p, "value_len": length, "coeffs": coeffs},
            "latency_graph": {"n": n, "edges": edges}, "protocol": "causalec",
            "clients": [{"id": c, "home": c} for c in range(1, n + 1)],
            "workload": {"kind": "script", "ops": ops},
            "delays": {"kind": "jitter", "factor": 2}, "halts": []}


def test_dense_gf257_l32_trace_matches_pin():
    result = run(scenario_from_json(dense_l32_doc()), 0, probes=True, collect_trace=True)
    got = {"sha256": result.trace_sha256(), "transitions": result.transitions,
           "verdicts": [[v.name, v.passed, v.inconclusive] for v in check_all(result)]}
    with open(PINS) as fh:
        assert got == json.load(fh)["dense_gf257_l32"]


if __name__ == "__main__":
    rows = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table().items())]
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")
