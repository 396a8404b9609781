"""Paired benchmark runs of two versions of this repository, summarised as JSON.

Each version is exported into its own clean temporary copy: a revision by
``git archive``, the working tree by copying the files git tracks or would
track (``git ls-files --cached --others --exclude-standard``).  No copy holds
a ``__pycache__``, and every run has ``PYTHONDONTWRITEBYTECODE=1``, so both
sides compile every module afresh.  For each ``WORKLOAD:SEEDS`` argument,
each seed is one pair: ``bench/run.py --workload W --seed S --seconds T
--trace 0`` on both copies back to back, the side that runs first
alternating from pair to pair over the whole invocation.

Per workload and end-to-end metric (names and directions from
``BENCHMARK.json``), the summary gives each side's median and quartiles
(``statistics.quantiles``, inclusive), the parent's interquartile range, the
relative change of the medians and per pair, and the number of pairs the
change wins (ties count for neither).  ``--claim WORKLOAD:METRIC`` adds a
claim block; ``claim_met`` holds when the change wins at least nine tenths
of at least ten pairs and its median is better than the parent's by more
than the parent's interquartile range.  Each pair's fingerprints (the
deterministic counts ``bench/run.py`` prints) are compared, and a pair
whose fingerprints differ is named.  From the root of a checkout:

    python tools/bench_pairs.py --parent HEAD~1 --claim scale:run_ms_p50 \\
        --out BENCH.json scale:2601-2610 coded:2611-2614

prints one line per run and per pair, and writes the summary with ``--out``.
It exits 1 when a run fails or is not correct, or when fingerprints differ.
Sent SIGTERM during a run (or before the next one), it kills that
``bench/run.py``, removes its copies and exits 143.
"""

import argparse
import io
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKTREE = "worktree"


def git(*args) -> bytes:
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          capture_output=True).stdout


def export(version: str, dest: str) -> str:
    """Write ``version`` (a revision, or ``WORKTREE``) into ``dest``; return
    the commit it names, or ``WORKTREE``."""
    if version == WORKTREE:
        names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in names.decode().split("\0"):
            src = os.path.join(ROOT, name)
            if name and os.path.isfile(src) and "__pycache__" not in name.split("/"):
                os.makedirs(os.path.dirname(os.path.join(dest, name)), exist_ok=True)
                shutil.copy2(src, os.path.join(dest, name))
        return WORKTREE
    commit = git("rev-parse", "--verify", f"{version}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as tar:
        tar.extractall(dest, filter="data")
    return commit


def bench(copy: str, workload: str, seed: int, seconds: float, stop: list) -> dict:
    """One ``bench/run.py`` run in ``copy``: its result line, fingerprint and
    checked-run count.  Once ``stop`` holds a signal number, the run is
    killed and ``SystemExit(128 + signal)`` raised; the flag is polled, as a
    handler that raised at once could fire while ``Popen`` is starting the
    child, before anything owns it to kill it."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    with subprocess.Popen(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True) as proc:
        while True:
            try:
                stdout, stderr = proc.communicate(timeout=0.1)
                break
            except subprocess.TimeoutExpired:
                if stop:
                    proc.kill()
                    raise SystemExit(128 + stop[0]) from None
    lines = stdout.splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(f"bench/run.py {workload} seed {seed} in {copy} printed no "
                           f"result (exit {proc.returncode}): {stderr[-2000:]}") from None
    fingerprint = next((json.loads(line.split(" ", 1)[1]) for line in lines
                        if line.startswith("fingerprint ")), None)
    runs = next((int(m.group(1)) for m in map(re.compile(r"(\d+) checked runs ").match, lines)
                 if m), None)
    return {"correct": out["correct"] and proc.returncode == 0,
            "attempted": out["attempted"], "failed": out["failed"], "checked_runs": runs,
            "metrics": {name: round(m["value"], 4) for name, m in out["metrics"].items()},
            "fingerprint": fingerprint}


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(q3, 4)]


def compare(pairs, metric: str, lower_is_better: bool) -> dict:
    """The summary of one metric over ``(parent, change)`` run pairs."""
    parent = [p["metrics"][metric] for p, _ in pairs]
    change = [c["metrics"][metric] for _, c in pairs]
    sign = 1 if lower_is_better else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    q = quartiles(parent)
    return {"parent_median": round(pm, 4), "change_median": round(cm, 4),
            "parent_q1_q3": q, "change_q1_q3": quartiles(change),
            "change_better_pairs": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "pairs": len(pairs),
            "rel_change": round(cm / pm - 1, 4) if pm else None,
            "parent_iqr": round(q[1] - q[0], 4),
            "per_pair_rel": [round(c / p - 1, 4) if p else None
                             for p, c in zip(parent, change)]}


def claim_met(summary: dict, lower_is_better: bool) -> bool:
    """Nine tenths of at least ten pairs won, and a median gap in the better
    direction wider than the parent's interquartile range."""
    gap = summary["parent_median"] - summary["change_median"]
    if not lower_is_better:
        gap = -gap
    return (summary["pairs"] >= 10
            and summary["change_better_pairs"] >= math.ceil(0.9 * summary["pairs"])
            and gap > summary["parent_iqr"])


def seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("runs", nargs="+", metavar="WORKLOAD:SEEDS",
                    help="a workload and a seed or seed range, such as scale:2601-2610")
    ap.add_argument("--parent", default="HEAD", help="revision (default HEAD)")
    ap.add_argument("--change", default=WORKTREE,
                    help=f"revision, or {WORKTREE} for the working tree (the default)")
    ap.add_argument("--seconds", type=float, default=None,
                    help="bench/run.py --seconds (default BENCHMARK.json's run_seconds)")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--out", help="write the JSON summary here")
    args = ap.parse_args(argv)
    args.runs = [(w, seeds(s)) for w, _, s in (r.partition(":") for r in args.runs)]
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    stop = []  # a SIGTERM's number: bench kills its run and exits, and the copies go
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.append(signum))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    lower = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    records, pairs, ok = [], {}, True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        copies = {side: os.path.join(tmp, side) for side in ("parent", "change")}
        commits = {side: export(getattr(args, side), path) for side, path in copies.items()}
        n = 0
        for workload, seed_list in args.runs:
            for seed in seed_list:
                order = ("parent", "change") if n % 2 == 0 else ("change", "parent")
                n += 1
                got = {}
                for side in order:
                    got[side] = r = bench(copies[side], workload, seed, seconds, stop)
                    records.append({"workload": workload, "seed": seed, "side": side,
                                    "first": order[0], **r})
                    ok &= r["correct"]
                    print(f"{workload} seed {seed} {side}: correct {r['correct']}, "
                          f"{r['failed']} failed of {r['attempted']}, "
                          + ", ".join(f"{k} {v}" for k, v in r["metrics"].items()),
                          flush=True)
                same = got["parent"]["fingerprint"] == got["change"]["fingerprint"]
                ok &= same
                print(f"{workload} seed {seed}: fingerprints "
                      f"{'equal' if same else 'DIFFER'}", flush=True)
                pairs.setdefault(workload, []).append((got["parent"], got["change"]))
    out = {"command": f"python3 bench/run.py --workload W --seed N --seconds {seconds:g} "
                      "--trace 0",
           "host": f"{os.cpu_count()}-core {platform.machine()} {platform.system()}, "
                   f"CPython {platform.python_version()}",
           "parent_commit": commits["parent"], "change": commits["change"],
           "method": "alternating pairs from clean copies (tools/bench_pairs.py)"}
    if args.claim:
        workload, _, metric = args.claim.partition(":")
        claim = compare(pairs[workload], metric, lower[metric])
        out["claim"] = {"workload": workload, "metric": metric, **claim}
        out["claim_met"] = claim_met(claim, lower[metric])
        print(f"claim {args.claim}: {'met' if out['claim_met'] else 'NOT met'}")
    out["every_run_correct_with_0_failed"] = all(r["correct"] and not r["failed"]
                                                 for r in records)
    out["fingerprints_equal"] = all(p["fingerprint"] == c["fingerprint"]
                                    for ps in pairs.values() for p, c in ps)
    out["workloads"] = {w: {m: compare(ps, m, lower[m]) for m in lower
                            if m in ps[0][0]["metrics"]} for w, ps in pairs.items()}
    out["runs"] = records
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(out, fh, indent=1)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
