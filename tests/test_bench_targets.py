"""The benchmark keeps working against the package.

Every function ``bench/spans.py`` wraps must exist: the benchmark patches
causalec functions by name from outside, and renaming or deleting one would
break it without failing any other test.  One pass of each workload must
end ``correct``: every checked run builds its scenario anew, so each pass
also runs the rules ``Scenario`` checks on construction.  All of them run
with bytecode writing off, so no cache lands in ``bench/``.

A single pass compares each run only with itself, so each pass must also
print the seed-1 ``fingerprint`` pinned in ``tests/pinned_runs.json``
(transitions, operations, read latencies and, for ``replay``, the combined
trace SHA-256).  Three of the four workloads run untraced and ``coded`` is
the only one on dense GF(257) codes with 32-element values, which the
golden table never runs, so this pin is what holds their behaviour.  The
pins live under ``tests/``, not in ``bench/baseline.json``: a change that
changes traces re-blesses them next to ``golden_traces.json`` and leaves
``bench/`` alone.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPANS = os.path.join(ROOT, "bench", "spans.py")
PINS = os.path.join(ROOT, "tests", "pinned_runs.json")


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_span_target_resolves():
    targets = load_spans().TARGETS
    assert targets
    missing = []
    for module, owner, fn, _name in targets:
        holder = importlib.import_module(module)
        if owner is not None:
            holder = getattr(holder, owner, None)
        if not callable(getattr(holder, fn, None)):
            missing.append(f"{module}:{owner or ''}.{fn}")
    assert not missing


def one_pass(workload):
    """The report of one ``--seconds 0`` pass on seed 1, after checking that
    its fingerprint equals the pinned one."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    (fingerprint,) = [json.loads(line.split(" ", 1)[1]) for line in lines
                      if line.startswith("fingerprint ")]
    with open(PINS) as fh:
        assert fingerprint == json.load(fh)["bench_fingerprints_seed_1"][workload]
    return json.loads(lines[-1])


def test_replay_pass_is_correct():
    assert one_pass("replay")["correct"] is True


def test_scale_pass_is_correct():
    assert one_pass("scale")["correct"] is True


def test_fuzz_pass_is_correct():
    assert one_pass("fuzz")["correct"] is True


def test_coded_pass_is_correct():
    assert one_pass("coded")["correct"] is True
