"""Acceptance gate: every shipped guarantee, at its stated tolerance.

One test per criterion, each printing a PASS/FAIL line (visible with -s or
in captured output).  The thousand-run randomized batteries are shared
session fixtures so the whole gate stays within its time budget.
"""

import time
from itertools import product

import pytest

import bundled
from bundled import FIG1_COEFFS
from causalec.checker import (
    check_causal,
    check_eventual,
    check_locality_and_liveness,
    check_storage,
)
from causalec.coding import LinearCode
from causalec.field import PrimeField
from causalec.harness import fuzz_run, latency_report_json
from causalec.scenarios import scenario_from_json
from causalec.server import CAUSAL, EVENTUAL
from causalec.simnet import run

FUZZ_RUNS = 1000
DETERMINISM_SEEDS = 20


def report(name, ok, detail=""):
    print(f"\nACCEPT {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def causal_battery():
    t0 = time.monotonic()
    results = [fuzz_run(seed, protocol=CAUSAL) for seed in range(FUZZ_RUNS)]
    return results, time.monotonic() - t0


@pytest.fixture(scope="session")
def eventual_battery():
    results = [fuzz_run(seed, protocol=EVENTUAL) for seed in range(FUZZ_RUNS)]
    return results


def test_01_code_algebra_oracle():
    t0 = time.monotonic()
    code = LinearCode(PrimeField(7), FIG1_COEFFS)
    zero = code.zero_value()
    checked = 0
    for x in product(range(7), repeat=3):
        vals = [(c,) for c in x]
        symbols = code.encode(vals)
        for obj in range(1, 4):
            for rs in code.minimal_recovery_sets(obj):
                got = code.decode(obj, rs, {j: symbols[j - 1] for j in rs.members})
                assert got == vals[obj - 1]
                checked += 1
        for i, k in ((1, 1), (3, 2), (4, 1), (5, 3)):
            old = vals[k - 1]
            new = ((x[0] + x[k - 1] + 1) % 7,)
            want = code.encode(vals[:k - 1] + [new] + vals[k:])[i - 1]
            sym = symbols[i - 1]
            delta = code.field.vsub(new, old)
            back = code.field.vsub(old, new)
            assert code.reencode(i, k, sym, old, new) == want
            assert code.reencode(i, k, sym, zero, delta) == want
            assert code.reencode(i, k, sym, back, zero) == want
    elapsed = time.monotonic() - t0
    report("01-code-algebra", elapsed < 1.0,
           f"{checked} decodes + re-encode forms in {elapsed:.2f}s")


def test_02_minimal_recovery_sets_verbatim():
    code = LinearCode(PrimeField(7), FIG1_COEFFS)
    got = {obj: {tuple(sorted(rs.members)) for rs in code.minimal_recovery_sets(obj)}
           for obj in (1, 2, 3)}
    ok = (got[1] == {(1,), (2, 4), (2, 3, 5)}
          and got[2] == {(2,), (1, 4), (1, 3, 5)}
          and got[3] == {(5,), (3, 4), (1, 2, 3)}
          # the superset {1,3,4} decodes X2 but is excluded by minimality
          and code.is_recovery_set({1, 3, 4}, 2) is not None)
    report("02-recovery-sets", ok, f"{got}")


def test_03_latency_reproduction():
    fig1 = scenario_from_json(bundled.doc("fig1"))
    rep = latency_report_json(fig1.code, fig1.graph)
    alt = scenario_from_json(bundled.doc("appendix_a"))
    rep_alt = latency_report_json(alt.code, alt.graph)
    checks = {
        "coded worst 4.5": abs(rep["coded"]["worst"] - 4.5) <= 1e-9,
        "coded average 2.83": abs(rep["coded"]["average"] - 2.83) <= 1e-9,
        "alternate average 2.7": abs(rep_alt["coded"]["average"] - 2.7) <= 1e-9,
        "replication worst 6": abs(rep["replication"]["worst"] - 6.0) <= 1e-9,
        "replication average 2.8": abs(rep["replication"]["average"] - 2.8) <= 1e-9,
    }
    report("03-latency", all(checks.values()), f"{checks}")


def test_04_causal_consistency_at_scale(causal_battery):
    results, elapsed = causal_battery
    failures = [r.seed for r, verdicts in results if not check_causal(r).passed]
    ok = not failures and elapsed < 60.0
    report("04-causal-fuzz", ok,
           f"{len(results)} runs in {elapsed:.1f}s, causal failures: {failures[:5]}")


def test_05_write_locality(causal_battery):
    results, _ = causal_battery
    breaks = sum(r.locality_breaks for r, _ in results)
    # writes, and reads at a server that stores the object uncoded
    report("05-write-locality", breaks == 0, f"{breaks} answers outside the receiving transition")


def test_06_read_liveness(causal_battery):
    results, _ = causal_battery
    failures = [r.seed for r, _ in results if not check_locality_and_liveness(r).passed]
    reads = sum(1 for r, _ in results for op in r.ops.values() if op.kind == "read")
    report("06-read-liveness", not failures,
           f"{reads} reads across {len(results)} runs, liveness failures: {failures[:5]}")


def test_07_eventual_consistency_and_storage(causal_battery):
    results, _ = causal_battery
    unhalted = [(r, v) for r, v in results if not r.halted]
    bad_eventual = [r.seed for r, _ in unhalted if not check_eventual(r).passed]
    bad_storage = [r.seed for r, _ in unhalted if not check_storage(r).passed]
    ok = not bad_eventual and not bad_storage and len(unhalted) >= 300
    report("07-eventual+storage", ok,
           f"{len(unhalted)} halt-free runs; eventual fails {bad_eventual[:5]}, "
           f"storage fails {bad_storage[:5]}")


def test_08_invariant_probes(causal_battery):
    results, _ = causal_battery
    transitions = sum(r.transitions for r, _ in results)
    violations = [v for r, _ in results for v in r.violations]
    ok = transitions >= 100_000 and not violations
    report("08-invariants", ok,
           f"{transitions} probed transitions, violations: {violations[:3]}")


def test_09_eventual_variant_differential(eventual_battery):
    results = eventual_battery
    bad = []
    for r, _ in results:
        if not check_locality_and_liveness(r).passed:
            bad.append(("liveness", r.seed))
        if not r.halted:
            if not check_eventual(r).passed:
                bad.append(("eventual", r.seed))
            if not check_storage(r).passed:
                bad.append(("storage", r.seed))
    sc = scenario_from_json(bundled.doc("ev_differential"))
    causal_run = run(sc, seed=0, protocol=CAUSAL, probes=True)
    eventual_run = run(sc, seed=0, protocol=EVENTUAL, probes=True)
    split_ok = check_causal(causal_run).passed and not check_causal(eventual_run).passed
    ok = not bad and split_ok
    report("09-eventual-differential", ok,
           f"suite failures {bad[:5]}; crafted schedule split: {split_ok}")


def test_10_determinism():
    sc = scenario_from_json(bundled.doc("fig1"))
    hashes = []
    ok = True
    for seed in range(DETERMINISM_SEEDS):
        a = run(sc, seed, probes=True, collect_trace=True).trace_sha256()
        b = run(sc, seed, probes=True, collect_trace=True).trace_sha256()
        ok &= a == b
        hashes.append(a)
    distinct = len(set(hashes))
    report("10-determinism", ok and distinct == DETERMINISM_SEEDS,
           f"{DETERMINISM_SEEDS} seeds replayed byte-identically, {distinct} distinct")
