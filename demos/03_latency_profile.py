"""Why mix objects at all: the latency profile of coding vs replication.

On the bundled 5-server graph, the coded layout reads every object anywhere
within 4.5 time units while the best replication of whole objects cannot do
better than 6; an alternate coded layout wins on average latency too.  Run:

    python demos/03_latency_profile.py
"""

from causalec import LinearCode, PrimeField, analyze_latency, replication_baseline
from causalec.builtin import ALT_COEFFS, FIG1_COEFFS, FIG1_EDGES
from causalec.latency import LatencyGraph

graph = LatencyGraph(5, {(i, j): w for i, j, w in FIG1_EDGES})

for label, coeffs in (("bundled code", FIG1_COEFFS), ("alternate code", ALT_COEFFS)):
    code = LinearCode(PrimeField(7), coeffs)
    rep = analyze_latency(graph, code)
    print(f"{label}: per-(server, object) read latency")
    for s in range(1, 6):
        row = "  ".join(f"{rep.per_pair[(s, k)]:5.2f}" for k in range(1, 4))
        print(f"  server {s}:  {row}")
    print(f"  worst {rep.worst:.2f}   average {rep.average:.4f}\n")

repl = replication_baseline(graph, k=3)
print("best replication of whole objects (one per server):")
print(f"  worst {repl.best_worst:.2f}   average {repl.best_average:.4f}")
print(f"  worst-case-optimal placement: {repl.worst_placement}")
