"""The traced sweep: one SHA-256 over the traces and reports of 770 runs.

A change that keeps behaviour must print the same lines as its parent.  The
table runs ``scenarios/fig1.json`` and ``scenarios/appendix_a.json`` (jittered
delays) on seeds 0-59, the other five ``scenarios/*.json`` files on seeds 0-2,
and ``fuzz_scenario`` 0-249, each
under both protocol variants, as probed runs with the trace collected.  Each
case contributes its trace SHA-256 and the SHA-256 of its
``verdicts_to_json`` report; the ``cases`` line's digest is the SHA-256 of
those hex strings in table order.  The ``verdicts`` line's digest is the
SHA-256 of each case's verdict lines (``Verdict.line``: the check's name
and PASS, FAIL or INCONCLUSIVE) in table order.  It leaves out the trace
and what the report says beside the verdicts, such as the transition count
and a failure's witness, which a change of schedule moves; so a change that
alters traces on purpose shows with it whether any verdict changed.  A new
schedule can flip verdicts that a variant does not promise (eventualec's
``causal``), so such a change compares the verdicts case by case.  The
``traces`` line's digest is the SHA-256 of the cases' trace SHA-256s alone,
in table order: a change that keeps every trace but alters the reports shows
with it that no trace moved.  Each case
is also run untraced, as the benchmark's untraced workloads run; if that
run's transition count or report hash differs from the traced run's, the
tool names the case on standard error and exits 1.  From the root of a
checkout (about 20 s on a 2-core host):

    python tools/trace_sweep.py
"""

import glob
import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from causalec.checker import check_all  # noqa: E402
from causalec.harness import fuzz_scenario, verdicts_to_json  # noqa: E402
from causalec.scenarios import scenario_from_json  # noqa: E402
from causalec.server import VARIANTS  # noqa: E402
from causalec.simnet import run  # noqa: E402

JITTERED = ("fig1", "appendix_a")
SCENARIOS = os.path.join(ROOT, "scenarios")


def cases():
    """(scenario name, seed, protocol) per case; the name ``fuzz`` stands
    for ``fuzz_scenario(seed)``."""
    out = []
    for protocol in VARIANTS:
        for path in sorted(glob.glob(os.path.join(SCENARIOS, "*.json"))):
            name = os.path.basename(path)[:-len(".json")]
            out += [(name, seed, protocol) for seed in range(60 if name in JITTERED else 3)]
        out += [("fuzz", seed, protocol) for seed in range(250)]
    return out


def case_run(name, seed, protocol, collect_trace):
    """The run of one case, the SHA-256 of its report and its verdict lines."""
    if name == "fuzz":
        scenario = fuzz_scenario(seed)
    else:
        scenario = scenario_from_json(os.path.join(SCENARIOS, f"{name}.json"))
    result = run(scenario, seed, protocol=protocol, probes=True, collect_trace=collect_trace)
    verdicts = check_all(result)
    report = json.dumps(verdicts_to_json(result, verdicts), sort_keys=True)
    lines = "".join(v.line() + "\n" for v in verdicts)
    return result, hashlib.sha256(report.encode()).hexdigest(), lines


def case_hashes(name, seed, protocol):
    """The trace SHA-256 and the report SHA-256 of one case."""
    result, report, _ = case_run(name, seed, protocol, collect_trace=True)
    return result.trace_sha256(), report


def main():
    table = cases()
    combined = hashlib.sha256()
    verdicts = hashlib.sha256()
    traces = hashlib.sha256()
    failed = False
    for case in table:
        traced, report, lines = case_run(*case, collect_trace=True)
        untraced, untraced_report, _ = case_run(*case, collect_trace=False)
        if (untraced.transitions, untraced_report) != (traced.transitions, report):
            failed = True
            print(f"untraced run differs: {'/'.join(map(str, case))} (transitions "
                  f"{traced.transitions} traced, {untraced.transitions} untraced)",
                  file=sys.stderr)
        trace = traced.trace_sha256().encode()
        combined.update(trace)
        combined.update(report.encode())
        verdicts.update(lines.encode())
        traces.update(trace)
    print(f"{len(table)} cases {combined.hexdigest()}")
    print(f"{len(table)} verdicts {verdicts.hexdigest()}")
    print(f"{len(table)} traces {traces.hexdigest()}")
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
