"""Golden trace hashes: a fixed (scenario, seed, protocol) table whose trace
SHA-256s and checker verdicts a behaviour-preserving change must reproduce.

Each entry is one probed run with trace collection on.  ``fig1`` and
``appendix_a`` use jittered delays, so they run seeds 0-9; the scripted
scenarios and ``ev_differential`` use fixed graph delays and hash the same on
every seed, so they run seed 0 only; the acceptance fuzz systems run seeds
0-9.  Every entry runs under both protocol variants.

``python tests/test_golden_traces.py`` prints the table as it stands, for
re-blessing ``golden_traces.json``.  Re-bless only together with a
``CHANGES.md`` entry that says which traces changed and why.
"""

import json
import os
import sys

import pytest

from causalec import builtin
from causalec.checker import check_all
from causalec.harness import fuzz_scenario
from causalec.scenarios import scenario_from_json
from causalec.server import VARIANTS
from causalec.simnet import run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_traces.json")

JITTERED = ("fig1", "appendix_a")
SEEDS = range(10)


def cases():
    """(key, scenario name, seed, protocol) for every table entry."""
    out = []
    for protocol in VARIANTS:
        for name in sorted(builtin.BUNDLED):
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
        scenario = scenario_from_json(builtin.BUNDLED[name]())
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


if __name__ == "__main__":
    rows = [f" {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table().items())]
    sys.stdout.write("{\n" + ",\n".join(rows) + "\n}\n")
