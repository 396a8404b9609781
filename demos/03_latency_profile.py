"""Why mix objects at all: the latency profile of coding vs replication.

On the bundled 5-server graph, the coded layout reads every object anywhere
within 4.5 time units while the best replication of whole objects cannot do
better than 6; an alternate coded layout wins on average latency too.  Run:

    python demos/03_latency_profile.py
"""

import os

from causalec import analyze_latency, replication_baseline, scenario_from_json

SCENARIOS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "scenarios")
# the two documents share the graph and differ in the code
graph = scenario_from_json(os.path.join(SCENARIOS, "fig1.json")).graph

for label, name in (("bundled code", "fig1"), ("alternate code", "appendix_a")):
    rep = analyze_latency(graph, scenario_from_json(os.path.join(SCENARIOS, f"{name}.json")).code)
    print(f"{label}: per-(server, object) read latency")
    for s in range(1, 6):
        row = "  ".join(f"{rep.per_pair[(s, k)]:5.2f}" for k in range(1, 4))
        print(f"  server {s}:  {row}")
    print(f"  worst {rep.worst:.2f}   average {rep.average:.4f}\n")

repl = replication_baseline(graph, k=3)
print("best replication of whole objects (one per server):")
print(f"  worst {repl.best_worst:.2f}   average {repl.best_average:.4f}")
print(f"  worst-case-optimal placement: {repl.worst_placement}")
