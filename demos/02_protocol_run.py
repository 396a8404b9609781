"""Watch the store handle a read that needs cross-server reconstruction.

Runs ``scenarios/read_scenario_2.json``, a read at a non-holder: server 1
never stores X3, so its client's read is answered by re-encoded symbols from
servers 3 and 4.
Prints the interesting trace lines, then the checker verdicts.  Run with:

    python demos/02_protocol_run.py
"""

import os

from causalec import check_all
from causalec.latency import format_ms
from causalec.messages import ReadReturn, ValInq, ValRespEncoded, Write
from causalec.scenarios import scenario_from_json
from causalec.simnet import run

scenario = scenario_from_json(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                           "..", "scenarios", "read_scenario_2.json"))
result = run(scenario, seed=0, probes=True, collect_trace=True)

print("timeline (writes, inquiries, decodes, returns):")
interesting = (Write, ValInq, ValRespEncoded, ReadReturn)
for rec in result.trace:
    if rec.notes:
        for note in rec.notes:
            if note[0] == "decoded":
                _, obj, via, opid = note
                print(f"  t={format_ms(rec.t):>6}  {rec.node} decodes X{obj} "
                      f"from servers {set(via)} for op {opid}")
    if rec.event[0] == "recv" and isinstance(rec.event[2], interesting):
        kind = type(rec.event[2]).__name__
        print(f"  t={format_ms(rec.t):>6}  {rec.node} <- {rec.event[1]}  {kind}")

print("\noperations:")
for op in result.operation_list():
    if not op.probe:
        val = op.value[0] if op.value else None
        print(f"  client {op.client} {op.kind} X{op.obj} -> {val} "
              f"(t={format_ms(op.t_invoke)}..{format_ms(op.t_response)})")

print("\ncheckers:")
for verdict in check_all(result):
    print(f"  {verdict.line()}")
