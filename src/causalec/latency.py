"""Read-latency analysis of a code on a server latency graph.

Fetching from several servers costs the maximum of the individual link
latencies, so the best read latency of object k at server s is the minimum
over k's recovery sets of that maximum (zero when s can decode alone).
Recovery sets are closed upward, so that minimum is a bottleneck: add
servers nearest first, s itself at 0, and it is the latency of the server
whose row brings ``e_k`` into the span (the matroid greedy argument;
Edmonds, "Matroids and the Greedy Algorithm", 1971).  The replication
baseline searches every placement of whole objects, at most one per server
(equal storage), to get the best achievable worst case and average.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from itertools import product
from typing import Dict, List, Mapping, Optional, Tuple

from .coding import LinearCode

MS = 1000  # virtual-time ticks per latency unit; keeps time rational
PLACEMENT_LIMIT = 2_000_000  # placements the replication baseline searches at most


def to_ms(x) -> int:
    """Latency value -> integer tick count, exact for <= 3 decimals."""
    d = Decimal(str(x)) * MS
    if d != d.to_integral_value():
        raise ValueError(f"latency {x} finer than 1/{MS} time units")
    return int(d)


def format_ms(t: int) -> str:
    whole, frac = divmod(t, MS)
    if frac == 0:
        return str(whole)
    return f"{whole}.{frac:03d}".rstrip("0")


class LatencyGraph:
    """Symmetric positive link latencies among n servers."""

    def __init__(self, n: int, weights: Mapping[Tuple[int, int], object]):
        if n < 1:
            raise ValueError("graph needs at least one server")
        self.n = n
        self._ms: Dict[Tuple[int, int], int] = {}
        for (i, j), w in weights.items():
            if not (1 <= i <= n and 1 <= j <= n) or i == j:
                raise ValueError(f"bad edge ({i},{j}) for n={n}")
            ms = to_ms(w)
            if ms <= 0:
                raise ValueError(f"edge ({i},{j}) must have positive latency")
            key = (min(i, j), max(i, j))
            if key in self._ms and self._ms[key] != ms:
                raise ValueError(f"edge ({i},{j}) given twice with different weights")
            self._ms[key] = ms
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if (i, j) not in self._ms:
                    raise ValueError(f"missing edge ({i},{j}); the graph must be complete")

    def delay_ms(self, i: int, j: int) -> int:
        if i == j:
            return 0
        return self._ms[(min(i, j), max(i, j))]

    def weight(self, i: int, j: int) -> float:
        return self.delay_ms(i, j) / MS


@dataclass
class LatencyReport:
    per_pair: Dict[Tuple[int, int], float]  # (server, object) -> best read latency
    worst: float
    average: float


def analyze_latency(graph: LatencyGraph, code: LinearCode) -> LatencyReport:
    """Best-recovery-set read latency for every (server, object) pair."""
    if graph.n != code.n:
        raise ValueError(f"graph has {graph.n} servers but code has {code.n}")
    servers = range(1, code.n + 1)
    last: Dict[int, List[Optional[int]]] = {
        s: code.recovered_by(sorted(servers, key=lambda j: graph.delay_ms(s, j)))
        for s in servers}
    per_pair: Dict[Tuple[int, int], float] = {}
    for obj in range(1, code.k + 1):
        for s in servers:
            j = last[s][obj - 1]
            if j is None:
                raise ValueError(f"object {obj} is not recoverable under this code")
            per_pair[(s, obj)] = graph.weight(s, j)
    vals = list(per_pair.values())
    return LatencyReport(per_pair, max(vals), sum(vals) / len(vals))


@dataclass
class ReplicationReport:
    best_worst: float
    best_average: float
    worst_placement: Tuple[Tuple[int, ...], ...]    # objects stored per server
    average_placement: Tuple[Tuple[int, ...], ...]


def replication_baseline(graph: LatencyGraph, k: int) -> ReplicationReport:
    """Exhaustive search over placements of whole objects, <= 1 per server.

    latency(s, obj) is 0 when obj is stored at s, else the nearest replica's
    link latency.  Returns the placements minimising worst case and average
    (independently).
    """
    n = graph.n
    if k > n:
        raise ValueError(f"cannot place {k} objects on {n} servers holding one each")
    choices: List[Tuple[int, ...]] = [()] + [(obj,) for obj in range(1, k + 1)]
    if len(choices) ** n > PLACEMENT_LIMIT:
        raise ValueError(f"placement space too large for exhaustive search: "
                         f"{len(choices)}^{n} placements, over {PLACEMENT_LIMIT:,}")
    best_worst: Optional[float] = None
    best_avg: Optional[float] = None
    arg_worst = arg_avg = None
    for placement in product(choices, repeat=n):
        holders: List[List[int]] = [[] for _ in range(k)]
        for s, objs in enumerate(placement, start=1):
            for obj in objs:
                holders[obj - 1].append(s)
        if any(not h for h in holders):
            continue
        worst = 0.0
        total = 0.0
        for obj in range(1, k + 1):
            hs = holders[obj - 1]
            for s in range(1, n + 1):
                c = 0.0 if s in hs else min(graph.weight(s, h) for h in hs)
                if c > worst:
                    worst = c
                total += c
        if best_worst is None or worst < best_worst:
            best_worst, arg_worst = worst, placement
        avg = total / (n * k)
        if best_avg is None or avg < best_avg:
            best_avg, arg_avg = avg, placement
    if best_worst is None:
        raise ValueError("no feasible placement")
    return ReplicationReport(best_worst, best_avg, arg_worst, arg_avg)
