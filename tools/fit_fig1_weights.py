"""Offline search that produced the bundled fig1 latency-graph weights.

The target profile: coded layout worst case 4.5 with average exactly 2.83,
alternate layout average 2.7, and an exhaustive whole-object replication
baseline of worst case 6 with average 2.8 -- all five simultaneously.
Multi-start Nelder-Mead over the ten symmetric edge weights gets an exact
interior solution; a greedy pass then freezes one coordinate at a time onto
a 0.25/0.05/0.025 grid and re-solves the rest, keeping the objective at
zero.  The result is committed as ``latency_graph.edges`` in
scenarios/fig1.json and verified by tests/test_acceptance.py in plain float
arithmetic (errors < 1e-12).

Needs scipy (not a package dependency); rerun with (about 4.5 minutes on a
2-core host):

    python tools/fit_fig1_weights.py
"""

import itertools

import numpy as np
from scipy.optimize import minimize

R_EC = {1: [(1,), (2, 4), (2, 3, 5)],
        2: [(2,), (1, 4), (1, 3, 5)],
        3: [(5,), (3, 4), (1, 2, 3)]}
R_ALT = {1: [(1,), (4, 5)], 2: [(2,), (3,)], 3: [(5,), (1, 4)]}
PAIRS = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
TARGET = np.array([4.5, 42.45, 40.5, 6.0, 42.0])  # worst/sum EC, sum ALT, worst/sum repl

TRIPLES = []
for f in itertools.product((0, 1, 2, 3), repeat=5):
    if set(x for x in f if x) != {1, 2, 3}:
        continue
    TRIPLES.append([tuple(i for i in range(5) if f[i] == k) for k in (1, 2, 3)])
SUBSETS = sorted(set(m for t in TRIPLES for m in t))
SUBIDX = {m: i for i, m in enumerate(SUBSETS)}
TRIP_IDX = np.array([[SUBIDX[m] for m in t] for t in TRIPLES])
SUBMASKS = [np.array(m) for m in SUBSETS]


def dmat(w):
    D = np.zeros((5, 5))
    for (i, j), v in zip(PAIRS, w):
        D[i - 1, j - 1] = D[j - 1, i - 1] = v
    return D


def coded_stats(D, recovery):
    lats = [min(max([D[s - 1, j - 1] for j in S if j != s], default=0.0) for S in sets)
            for sets in recovery.values() for s in range(1, 6)]
    return max(lats), sum(lats)


def replication_stats(D):
    cost = np.empty(len(SUBSETS))
    worst = np.empty(len(SUBSETS))
    for idx, m in enumerate(SUBMASKS):
        mins = D[:, m].min(axis=1)
        cost[idx] = mins.sum()
        worst[idx] = mins.max()
    return worst[TRIP_IDX].max(axis=1).min(), cost[TRIP_IDX].sum(axis=1).min()


def stats(w):
    D = dmat(np.abs(w))
    ew, es = coded_stats(D, R_EC)
    _, asum = coded_stats(D, R_ALT)
    rw, rs = replication_stats(D)
    return np.array([ew, es, asum, rw, rs])


def objective(w):
    return float(((stats(w) - TARGET) ** 2).sum())


def solve_free(w_start, fixed):
    free = [i for i in range(10) if i not in fixed]
    if not free:
        full = np.array([fixed[i] for i in range(10)], dtype=float)
        return objective(full), full

    def obj(fw):
        full = np.array(w_start, dtype=float)
        for i, v in fixed.items():
            full[i] = v
        full[free] = np.abs(fw)
        return objective(full)

    res = minimize(obj, np.array(w_start)[free], method="Nelder-Mead",
                   options={"maxiter": 6000, "fatol": 1e-18, "xatol": 1e-12})
    full = np.array(w_start, dtype=float)
    for i, v in fixed.items():
        full[i] = v
    full[free] = np.abs(res.x)
    return res.fun, full


def main():
    rng = np.random.default_rng(7)
    w = None
    for trial in range(500):
        res = minimize(objective, rng.uniform(0.5, 8.0, size=10), method="Nelder-Mead",
                       options={"maxiter": 2000, "fatol": 1e-16, "xatol": 1e-10})
        if res.fun < 1e-16:
            w = np.abs(res.x)
            print(f"exact interior solution after {trial + 1} starts")
            break
    assert w is not None, "no exact solution found; add starts"

    fixed = {}
    for grid in (0.25, 0.05, 0.025):
        progress = True
        while progress:
            progress = False
            order = sorted((abs(w[i] - round(w[i] / grid) * grid), i)
                           for i in range(10) if i not in fixed)
            for _, i in order:
                target = round(round(w[i] / grid) * grid, 6)
                fun, candidate = solve_free(w, {**fixed, i: target})
                if fun < 1e-15:
                    fixed[i] = target
                    w = candidate
                    progress = True
                    break

    print("stats:", stats(w), "objective:", objective(w))
    for (i, j), v in zip(PAIRS, w):
        print(f"  d({i},{j}) = {round(v, 3)}")


if __name__ == "__main__":
    main()
