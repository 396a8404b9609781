"""The causalec benchmark: seeded checked runs, timed end to end or under spans.

Run from the root of a checkout:

    python3 bench/run.py --workload fuzz --seed 1 --seconds 28 --trace 0

A checked run is ``simnet.run(..., probes=True)`` plus ``check_all`` (plus
``trace_sha256()`` on ``replay``).  Set-up imports ``causalec`` afresh and
generates and parses every scenario the workload runs; it is repeated and
its median reported.  The timed part then repeats whole passes over the
workload's runs, single-process, starting no run after ``--seconds``, and
reports per-run medians across passes.  Every time is scaled to a fixed
reference host speed, sampled around and during each timed piece of work
(see ``hostspeed.py``); the figures as measured are printed beside them.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` ignores
``--seconds``: it makes each checked run twice in a row, untraced and then
under spans, and prints the per-layer metrics, the span overhead and the
path of the span file it writes under ``bench/out/``.

Every run's promised verdicts are checked, every repeated run must replay
to the same transition count, read latencies and trace hash, and the ``ev_differential``
schedule must split the causal checker between the two variants.  Any
mismatch sets ``correct`` to false and the exit code to 1.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and ``failed``
(operations, and operations in runs that broke a promised verdict) and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter
from typing import Dict, List, NamedTuple, Optional, Tuple

import spans
import workloads
from hostspeed import HostSpeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPS = 3  # set-ups before each timed pass
P90_MIN_SAMPLES = 100
UNATTRIBUTED_TOLERANCE = 0.05


class Sample(NamedTuple):
    """Everything kept from one checked run.  Times are as measured; ``speed``
    scales them to the reference host speed."""

    total_s: float
    sim_s: float
    check_s: float
    speed: float
    transitions: int
    ops: int
    broken: Tuple[str, ...]
    read_vlat: Tuple[int, ...]  # ticks, workload reads that completed
    trace_sha256: Optional[str]


# -- set-up -------------------------------------------------------------------------


def _purge_causalec() -> None:
    for name in [m for m in sys.modules if m == "causalec" or m.startswith("causalec.")]:
        del sys.modules[name]


def set_up(workload: str, seed: int) -> Tuple[float, float, list]:
    """Seconds to import causalec afresh and build the workload, the host
    speed factor around it, and the jobs."""
    _purge_causalec()
    gc.collect()
    speed = HostSpeed()
    speed.sample()
    t0 = perf_counter()
    importlib.import_module("causalec")
    jobs = workloads.build(workload, seed, ROOT)
    elapsed = perf_counter() - t0
    speed.sample()
    return elapsed, speed.mean_since(0), jobs


def program_modules() -> Dict[str, object]:
    names = ("causalec.field", "causalec.coding", "causalec.messages", "causalec.server",
             "causalec.simnet", "causalec.checker", "causalec.scenarios", "causalec.harness")
    return {n: importlib.import_module(n) for n in names}


# -- checked runs -------------------------------------------------------------------


def checked_run(simnet, checker, job, clock=perf_counter) -> Sample:
    start = clock()
    scenario = workloads.fresh(job.scenario)
    t0 = clock()
    result = simnet.run(scenario, job.seed, protocol=job.protocol,
                        collect_trace=job.collect_trace, probes=True)
    t1 = clock()
    verdicts = checker.check_all(result)
    t2 = clock()
    digest = result.trace_sha256() if job.collect_trace else None
    t3 = clock()
    vlat = tuple(op.t_response - op.t_invoke for op in result.ops.values()
                 if op.kind == "read" and not op.probe and op.completed)
    return Sample(t3 - start, t1 - t0, t2 - t1, 1.0, result.transitions, len(result.ops),
                  tuple(workloads.broken_promises(job.protocol, verdicts)), vlat, digest)


def one_pass(mods, jobs, deadline: float = float("inf")) -> List[Sample]:
    """Checked runs of the jobs in order, starting none after ``deadline``,
    each with the host speed factor sampled around and during it."""
    gc.collect()
    simnet, checker = mods["causalec.simnet"], mods["causalec.checker"]
    samples = []
    with HostSpeed() as speed:
        speed.sample()
        for job in jobs:
            if perf_counter() >= deadline:
                break
            first = len(speed.factors) - 1
            s = checked_run(simnet, checker, job, speed.clock)
            speed.sample()
            samples.append(s._replace(speed=speed.mean_since(first)))
    return samples


# -- statistics ----------------------------------------------------------------------


def nearest_rank(values, q: float):
    """The q-quantile by nearest rank (an observed value, never interpolated)."""
    ordered = sorted(values)
    rank = -(-round(q * 1000) * len(ordered) // 1000)  # ceil(q * n) in integers
    return ordered[max(rank, 1) - 1]


class Checks:
    """Correctness findings, gathered across every pass."""

    def __init__(self):
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0

    def add_pass(self, jobs, samples: List[Sample], first: Optional[List[Sample]]) -> None:
        for i, (job, s) in enumerate(zip(jobs, samples)):
            self.attempted += s.ops
            if s.broken:
                self.failed += s.ops
                self.problems.append(
                    f"{job.scenario.name} seed {job.seed} {job.protocol}: "
                    f"promised verdicts failed: {', '.join(s.broken)}")
            ref = first[i] if first is not None else s
            if (ref.transitions, ref.read_vlat, ref.trace_sha256) != (
                    s.transitions, s.read_vlat, s.trace_sha256):
                self.problems.append(
                    f"{job.scenario.name} seed {job.seed} {job.protocol}: "
                    "repeated run did not replay identically")

    @property
    def correct(self) -> bool:
        return not self.problems


def fingerprint(samples: List[Sample]) -> dict:
    """Deterministic counts of one pass; identical on any two runs of one seed."""
    vlat = [v for s in samples for v in s.read_vlat]
    ticks = importlib.import_module("causalec.latency").MS  # per latency unit
    fp = {
        "runs": len(samples),
        "transitions": sum(s.transitions for s in samples),
        "ops": sum(s.ops for s in samples),
        "read_vlat_samples": len(vlat),
        "read_vlat_p50": nearest_rank(vlat, 0.5) / ticks if vlat else 0.0,
        "read_vlat_p90": nearest_rank(vlat, 0.9) / ticks if vlat else 0.0,
    }
    digests = [s.trace_sha256 for s in samples if s.trace_sha256 is not None]
    if digests:
        fp["trace_sha256_combined"] = hashlib.sha256("".join(digests).encode()).hexdigest()
    return fp


def end_to_end(passes: List[List[Sample]], setup_s: float, scaled: bool = True):
    """The end-to-end metrics from per-run medians across passes, and those
    medians of the whole checked run.  With ``scaled`` every time is taken
    at reference host speed, otherwise as measured."""
    n = len(passes[0])
    runs = [[p[i] for p in passes if i < len(p)] for i in range(n)]

    def med(field: str) -> List[float]:
        return [statistics.median(getattr(s, field) * (s.speed if scaled else 1.0)
                                  for s in r) for r in runs]

    med_total, med_sim, med_check = med("total_s"), med("sim_s"), med("check_s")
    transitions = sum(s.transitions for s in passes[0])
    return {
        "setup_s": (setup_s, "s"),
        "runs_per_s": (n / sum(med_total), "runs/s"),
        "run_ms_p50": (statistics.median(med_total) * 1e3, "ms"),
        "us_per_transition": (sum(med_sim) / transitions * 1e6, "us"),
        "check_ms_p50": (statistics.median(med_check) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, med_total


# -- the two modes --------------------------------------------------------------------


def timed(args, checks: Checks) -> Tuple[dict, List[str]]:
    # Set-up is repeated before every pass, so its samples are spread over
    # the same stretch of time as the runs' and see the same machine.
    # The first pass is always whole; the last one stops at the deadline.
    passes: List[List[Sample]] = []
    setups: List[Tuple[float, float]] = []  # (seconds, speed factor)
    t0 = perf_counter()
    deadline = t0 + args.seconds
    while not passes or perf_counter() < deadline:
        for _ in range(SETUP_REPS):
            setup_s, speed, jobs = set_up(args.workload, args.seed)
            setups.append((setup_s, speed))
        samples = one_pass(program_modules(), jobs, deadline if passes else float("inf"))
        checks.add_pass(jobs, samples, passes[0] if passes else None)
        passes.append(samples)
    metrics, med_total = end_to_end(
        passes, statistics.median(t * speed for t, speed in setups))
    measured, _ = end_to_end(passes, statistics.median(t for t, _ in setups), scaled=False)
    fp = fingerprint(passes[0])
    speeds = [s.speed for p in passes for s in p]
    lines = [f"{sum(map(len, passes))} checked runs ({len(jobs)} per pass) "
             f"in {perf_counter() - t0:.2f}s",
             f"host speed factor median {statistics.median(speeds):.3f} "
             f"(min {min(speeds):.3f}, max {max(speeds):.3f}); as measured: "
             + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit)
                         in measured.items() if name != "peak_rss_mb")]
    if len(jobs) >= P90_MIN_SAMPLES:
        lines.append(f"run_ms_p90 = {nearest_rank(med_total, 0.9) * 1e3:.4f} ms "
                     f"(n={len(jobs)} per-run medians)")
    else:
        lines.append(f"run_ms_p90 not reported: {len(jobs)} runs per pass < "
                     f"{P90_MIN_SAMPLES}")
    lines.append(f"read_vlat_p50 = {fp['read_vlat_p50']} latency_units "
                 f"(n={fp['read_vlat_samples']} workload reads)")
    lines.append(f"read_vlat_p90 = {fp['read_vlat_p90']} latency_units "
                 f"(n={fp['read_vlat_samples']} workload reads)")
    lines.append(f"op_fail_frac = {checks.failed / checks.attempted} ratio "
                 f"({checks.failed} failed of {checks.attempted} operations)")
    lines.append("fingerprint " + json.dumps(fp, sort_keys=True))
    return metrics, lines


def layer_metrics(rec: spans.SpanRecorder, samples: List[Sample], checks: Checks,
                  overhead: float, unattributed: float) -> Dict[str, Tuple[float, str]]:
    out: Dict[str, Tuple[float, str]] = {}
    for name in rec.names:
        if name == "simnet.run_to_quiescence":
            continue  # reported as simnet.self_ms
        out[f"{name}.calls"] = (rec.count(name), "count")
        out[f"{name}.self_ms"] = (rec.self_ms(name), "ms")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    recovery_calls = rec.count("coding.minimal_recovery_sets")
    out["coding.recovery_cache_hit_ratio"] = (
        ratio(recovery_calls - len(rec.recovery_pairs), recovery_calls), "ratio")
    out["messages.describe.untraced_calls"] = (rec.describe_untraced, "count")
    for action in spans.INTERNAL_ACTIONS:
        out[f"server.{action}.useful_ratio"] = (
            ratio(rec.useful[action], rec.count(f"server.{action}")), "ratio")
    ops = sum(s.ops for s in samples)
    transitions = sum(s.transitions for s in samples)
    server_msgs = sum(rec.count(f"server.on_{k}")
                      for k in ("app", "del", "val_inq", "val_resp", "val_resp_encoded"))
    out["server.msgs_per_op"] = (ratio(server_msgs, ops), "msgs/op")
    out["server.del_per_write"] = (
        ratio(rec.count("server.on_del"), rec.count("server.on_write")), "dels/write")
    out["server.workload_reads"] = (rec.workload_reads, "count")
    out["server.read_remote_frac"] = (ratio(rec.remote_reads, rec.workload_reads), "ratio")
    out["simnet.self_ms"] = (rec.self_ms("simnet.run_to_quiescence"), "ms")
    out["simnet.transitions"] = (transitions, "count")
    out["simnet.ops"] = (ops, "count")
    out["simnet.transitions_per_op"] = (ratio(transitions, ops), "transitions/op")
    fp = fingerprint(samples)
    out["simnet.read_vlat_p50"] = (fp["read_vlat_p50"], "latency_units")
    out["simnet.read_vlat_p90"] = (fp["read_vlat_p90"], "latency_units")
    out["simnet.read_vlat_samples"] = (fp["read_vlat_samples"], "count")
    out["checker.op_fail_frac"] = (ratio(checks.failed, checks.attempted), "ratio")
    out["bench.span_overhead_frac"] = (overhead, "ratio")
    out["bench.unattributed_frac"] = (unattributed, "ratio")
    out["bench.spans"] = (len(rec.start), "count")
    return out


def traced(args, checks: Checks) -> Tuple[dict, List[str]]:
    """Each run twice in a row, untraced and then under spans, so the span
    overhead compares the same runs at nearly the same moment."""
    _, _, jobs = set_up(args.workload, args.seed)
    mods = program_modules()
    simnet, checker = mods["causalec.simnet"], mods["causalec.checker"]
    rec = spans.SpanRecorder(simnet.PROBE_CLIENT_BASE)
    rec.install(mods)
    try:
        workloads.build(args.workload, args.seed, ROOT)  # set-up spans, run id -1
    finally:
        rec.uninstall()
    setup_self = rec.total_self_s()
    spanned_run = rec.span(checked_run, "bench.run")
    baseline: List[Sample] = []
    samples: List[Sample] = []
    untraced_s = span_s = 0.0
    gc.collect()
    for i, job in enumerate(jobs):
        t0 = perf_counter()
        baseline.append(checked_run(simnet, checker, job))
        untraced_s += perf_counter() - t0
        rec.run_id = i
        rec.untraced = not job.collect_trace
        rec.install(mods)
        try:
            t0 = perf_counter()
            samples.append(spanned_run(simnet, checker, job))
            span_s += perf_counter() - t0
        finally:
            rec.uninstall()
    checks.add_pass(jobs, baseline, None)
    checks.add_pass(jobs, samples, baseline)
    overhead = span_s / untraced_s - 1
    unattributed = 1 - (rec.total_self_s() - setup_self) / span_s
    # the overhead estimate itself moves with machine noise, hence the floor
    if abs(unattributed) > max(overhead, UNATTRIBUTED_TOLERANCE):
        checks.problems.append(
            f"span self times leave {unattributed:.1%} of the spanned runs unattributed, "
            f"more than the {overhead:.1%} span overhead")
    path = os.path.join(ROOT, "bench", "out", f"spans-{args.workload}.bin")
    rec.dump(path)
    metrics = layer_metrics(rec, samples, checks, overhead, unattributed)
    fp = fingerprint(samples)
    fp["messages"] = {name.split(".", 1)[1]: rec.count(name) for name in rec.names
                      if name.startswith("server.on_")}
    lines = [f"untraced runs {untraced_s:.2f}s, spanned runs {span_s:.2f}s, "
             f"{len(rec.start)} spans written to {os.path.relpath(path, ROOT)}",
             "fingerprint " + json.dumps(fp, sort_keys=True)]
    return metrics, lines


# -- entry point ------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "causalec", "__init__.py")):
        print(f"error: no causalec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    checks = Checks()
    metrics, lines = (traced if args.trace else timed)(args, checks)
    split = workloads.differential_split(ROOT)
    if split is not None:
        checks.problems.append(split)
    print(f"workload {args.workload} seed {args.seed}")
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in checks.problems:
        print(f"MISMATCH {problem}")
    print(json.dumps({
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if checks.correct else 1


if __name__ == "__main__":
    sys.exit(main())
