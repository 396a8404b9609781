"""Command-line harness: run scenarios under the checkers and report
latency tables.

``run`` executes one seeded simulation per requested seed, follows each with
probe reads, applies every checker, and exits nonzero if any verdict fails.
``latency`` prints the read-latency profile of the scenario's code on its
graph next to the best replication baseline.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import functools
import hashlib
import json
import os
import random
import sys
from typing import List, Optional, Tuple

from .checker import Verdict, all_passed, check_all
from .coding import LinearCode
from .field import PrimeField
from .latency import LatencyGraph, analyze_latency, replication_baseline
from .scenarios import ClientSpec, RandomWorkload, Scenario, ScenarioError, scenario_from_json
from .server import CAUSAL, EVENTUAL
from .simnet import RunResult, run as run_scenario


# -- fuzzing -------------------------------------------------------------------


def random_code(rng: random.Random, n: int, k: int, p: int = 7) -> LinearCode:
    """A random n x k code over GF(p) with every object recoverable."""
    field = PrimeField(p)
    while True:
        if rng.random() < 0.15:
            # replication-style rows: each server stores one object plainly
            coeffs = [[1 if rng.randint(1, k) == obj else 0 for obj in range(1, k + 1)]
                      for _ in range(n)]
        else:
            coeffs = [[rng.randrange(p) for _ in range(k)] for _ in range(n)]
        code = LinearCode(field, coeffs, value_len=1)
        try:
            code.check_recoverable()
        except ValueError:
            continue
        return code


def fuzz_scenario(seed: int) -> Scenario:
    """A small randomized system: dimensions, code, delays, workload, and a
    single-server halt in 40% of systems all derive from the seed."""
    rng = random.Random(0xFC2 ^ (seed * 0x9E3779B1))
    n = rng.randint(2, 5)
    k = rng.randint(1, min(3, n))  # recoverability needs row rank >= k
    code = random_code(rng, n, k, p=rng.choice([7, 11]))
    edges = {(i, j): rng.randint(500, 5000) / 1000
             for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    graph = LatencyGraph(n, edges)
    n_clients = rng.randint(1, 4)
    clients = [ClientSpec(cid, rng.randint(1, n)) for cid in range(1, n_clients + 1)]
    halts = {}
    if rng.random() < 0.4:
        halts[rng.randint(1, n)] = rng.randint(0, 40_000)
    return Scenario(
        name=f"fuzz-{seed}",
        code=code,
        graph=graph,
        protocol=CAUSAL,
        clients=clients,
        random_workload=RandomWorkload(
            ops=rng.randint(10, 50),
            read_fraction=rng.uniform(0.3, 0.7),
            think_ms=(0, 3000)),
        delays={"kind": "jitter", "factor": 2},
        halts=halts,
        step_cap=300_000,
    )


def fuzz_run(seed: int, protocol: str = CAUSAL) -> Tuple[RunResult, List[Verdict]]:
    """One probed, untraced run of ``fuzz_scenario(seed)`` and its verdicts."""
    result = run_scenario(fuzz_scenario(seed), seed, protocol=protocol,
                          collect_trace=False, probes=True)
    return result, check_all(result)


# -- report formatting -----------------------------------------------------------


def verdicts_to_json(result: RunResult, verdicts: List[Verdict]) -> dict:
    return {
        "scenario": result.scenario_name,
        "protocol": result.protocol,
        "seed": result.seed,
        "quiescent": result.quiescent,
        "transitions": result.transitions,
        "pending": [list(o) for o in result.pending_opids],
        "halted": result.halted,
        "checks": [
            {"name": v.name, "passed": v.passed, "inconclusive": v.inconclusive,
             "details": v.details}
            for v in verdicts],
        "ok": all_passed(verdicts),
    }


def latency_report_json(code: LinearCode, graph: LatencyGraph) -> dict:
    coded = analyze_latency(graph, code)
    repl = replication_baseline(graph, code.k)
    return {
        "per_pair": {f"s{s}/x{k}": v for (s, k), v in sorted(coded.per_pair.items())},
        "coded": {"worst": coded.worst,
                  "average": coded.average,
                  "average_2dp": round(coded.average, 2)},
        "replication": {"worst": repl.best_worst,
                        "average": repl.best_average,
                        "average_2dp": round(repl.best_average, 2)},
    }


def latency_report_table(code: LinearCode, graph: LatencyGraph) -> str:
    coded = analyze_latency(graph, code)
    repl = replication_baseline(graph, code.k)
    lines = ["read latency by (server, object):"]
    header = "server " + " ".join(f"   X{k}" for k in range(1, code.k + 1))
    lines.append(header)
    for s in range(1, code.n + 1):
        row = " ".join(f"{coded.per_pair[(s, k)]:5.2f}" for k in range(1, code.k + 1))
        lines.append(f"  s{s}   {row}")
    lines.append(f"coded store:          worst {coded.worst:.2f}  average {coded.average:.2f}")
    lines.append(f"replication baseline: worst {repl.best_worst:.2f}  average {repl.best_average:.2f}")
    return "\n".join(lines)


# -- CLI ------------------------------------------------------------------------


def parse_seeds(text: str) -> List[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        seeds = list(range(int(lo), int(hi) + 1))
        if not seeds:
            raise argparse.ArgumentTypeError(f"empty seed range {text}")
        return seeds
    return [int(text)]


def int_at_least(low: int):
    """An argparse type: an integer no smaller than ``low``, the bound
    ``Scenario`` puts on the field that the flag overrides."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


def _load(path: str) -> Optional[Scenario]:
    """The scenario in the file at ``path``, or None after reporting why not."""
    try:
        return scenario_from_json(path)
    except (OSError, ScenarioError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        return None


def _run_one(scenario: Scenario, seed: int, protocol: Optional[str],
             collect_trace: bool) -> Tuple[dict, Optional[str]]:
    """The report of one probed, checked run, and its trace text when collected."""
    result = run_scenario(scenario, seed, protocol=protocol,
                          collect_trace=collect_trace, probes=True)
    report = verdicts_to_json(result, check_all(result))
    if not collect_trace:
        return report, None
    text = result.trace_jsonl()
    report["trace_sha256"] = hashlib.sha256(text.encode()).hexdigest()
    return report, text


def cmd_run(args) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 2
    if args.step_cap is not None:
        scenario = dataclasses.replace(scenario, step_cap=args.step_cap)
    if args.out is not None:
        # output files are named after the scenario; a name the file-system
        # encoding cannot hold must fail before any seed runs
        try:
            os.fsencode(os.path.join(args.out, scenario.name))
        except UnicodeEncodeError as e:
            print(f"error: {args.scenario}: name {scenario.name!r} cannot be a file "
                  f"name in the {e.encoding} file-system encoding", file=sys.stderr)
            return 2
    run_seed = functools.partial(_run_one, scenario, protocol=args.protocol,
                                 collect_trace=args.out is not None)
    # the pool starts all its processes at once, so it never asks for more
    # than there are seeds or CPUs; runs are deterministic, so the count
    # changes only the wall time
    workers = min(args.workers, len(args.seeds), os.cpu_count() or 1)
    if workers > 1:
        # each task gets a pickled copy of the parsed scenario
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_seed, args.seeds))
    else:
        results = list(map(run_seed, args.seeds))
    ok = True
    for report, text in results:
        ok &= report["ok"]
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            base = os.path.join(args.out, f"{report['scenario']}-seed{report['seed']}")
            with open(base + ".trace.jsonl", "w", encoding="utf-8") as fh:
                fh.write(text)
            with open(base + ".report.json", "w", encoding="utf-8") as fh:
                json.dump(report, fh, indent=1)
        if args.format == "json":
            print(json.dumps(report, sort_keys=True))
        else:
            status = "ok" if report["ok"] else "FAIL"
            checks = " ".join(
                f"{c['name']}={'pass' if c['passed'] else ('n/a' if c['inconclusive'] else 'FAIL')}"
                for c in report["checks"])
            print(f"seed {report['seed']:>4} [{status}] "
                  f"transitions={report['transitions']} {checks}")
    return 0 if ok else 1


def cmd_latency(args) -> int:
    scenario = _load(args.scenario)
    if scenario is None:
        return 2
    if args.format == "json":
        print(json.dumps(latency_report_json(scenario.code, scenario.graph), sort_keys=True))
    else:
        print(latency_report_table(scenario.code, scenario.graph))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="causalec",
        description="simulate and check the erasure-coded causal store")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run a scenario under all checkers")
    p_run.add_argument("scenario")
    p_run.add_argument("--seeds", type=parse_seeds, default=[0],
                       help="single seed N or inclusive range A..B")
    p_run.add_argument("--protocol", choices=[CAUSAL, EVENTUAL], default=None)
    p_run.add_argument("--step-cap", type=int_at_least(1), default=None)
    p_run.add_argument("--out", default=None, help="directory for traces and reports")
    p_run.add_argument("--format", choices=["table", "json"], default="table")
    p_run.add_argument("--workers", type=int_at_least(1), default=1,
                       help="processes to run seeds in: at most one per seed and per "
                            "CPU, and with one the seeds run in this process")
    p_run.set_defaults(fn=cmd_run)

    p_lat = sub.add_parser("latency", help="latency profile of a scenario's code+graph")
    p_lat.add_argument("scenario")
    p_lat.add_argument("--format", choices=["table", "json"], default="table")
    p_lat.set_defaults(fn=cmd_latency)
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
