"""Guards for the offline tools in ``tools/``, which nothing else runs.

``tools/fit_fig1_weights.py`` produced the edge weights in
``scenarios/fig1.json``'s ``latency_graph.edges``; a full search
takes minutes, so these tests check its fixed parts and its final step (every
weight frozen, no free coordinate left), which once crashed.
``tools/trace_sweep.py`` hashes 770 traced runs; these tests check its table,
that it holds every case of the golden table, one case against it, that
it fails on a case whose untraced run differs, and that its ``verdicts``
and ``traces`` lines hash the verdict lines and the trace hashes alone.
``tools/bench_pairs.py`` runs the
benchmark on two exported versions; these tests run one short pair of
``HEAD`` against itself, check its claim rule, and stop it with SIGTERM
while its first benchmark run is going, which must leave no child process
and no temporary copy behind.
"""

import hashlib
import importlib.util
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from bundled import FIG1_EDGES

TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_traces.json")


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(TOOLS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fit():
    pytest.importorskip("scipy")
    return load_tool("fit_fig1_weights")


def test_pairs_are_the_committed_edge_endpoints(fit):
    assert fit.PAIRS == [(i, j) for i, j, _ in FIG1_EDGES]


def test_committed_weights_solve_the_target_with_nothing_free(fit):
    weights = [w for _, _, w in FIG1_EDGES]
    fun, full = fit.solve_free([1.0] * 10, dict(enumerate(weights)))
    assert fun < 1e-15
    assert list(full) == weights


def test_sweep_table_has_770_cases():
    cases = load_tool("trace_sweep").cases()
    assert len(cases) == len(set(cases)) == 770


def test_sweep_case_hash_matches_golden_table():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    trace_sha256, _ = load_tool("trace_sweep").case_hashes("fig1", 7, "eventualec")
    assert trace_sha256 == golden["fig1/eventualec/7"]["sha256"]


def test_sweep_holds_every_golden_case():
    # both gates pin the same bytes; a golden case outside the sweep would
    # let the two drift apart
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    sweep = {f"{name}/{protocol}/{seed}"
             for name, seed, protocol in load_tool("trace_sweep").cases()}
    assert set(golden) <= sweep


def test_sweep_names_a_case_whose_untraced_run_differs(monkeypatch, capsys):
    sweep = load_tool("trace_sweep")
    monkeypatch.setattr(sweep, "cases", lambda: [("fig1", 0, "causalec")])
    real_run = sweep.run

    def run(*args, collect_trace, **kwargs):
        result = real_run(*args, collect_trace=collect_trace, **kwargs)
        result.transitions += not collect_trace
        return result

    monkeypatch.setattr(sweep, "run", run)
    with pytest.raises(SystemExit) as stop:
        sweep.main()
    assert stop.value.code == 1
    out = capsys.readouterr()
    assert out.out.startswith("1 cases ")
    assert "untraced run differs: fig1/0/causalec" in out.err


def test_sweep_verdicts_line_hashes_the_verdict_lines_alone(monkeypatch, capsys):
    sweep = load_tool("trace_sweep")
    monkeypatch.setattr(sweep, "cases", lambda: [("fig1", 0, "causalec"),
                                                 ("ev_differential", 0, "eventualec")])
    tail = "eventual: PASS\nstorage: PASS\nlocality+liveness: PASS\ninvariants: PASS\n"
    lines = "causal: PASS\n" + tail + "causal: FAIL\n" + tail
    want = f"2 verdicts {hashlib.sha256(lines.encode()).hexdigest()}"
    sweep.main()
    cases, verdicts, _ = capsys.readouterr().out.splitlines()
    assert cases.startswith("2 cases ")
    assert verdicts == want

    # a moved transition count changes the report, so the cases line, but
    # not the verdicts line
    real_run = sweep.run

    def run(*args, **kwargs):
        result = real_run(*args, **kwargs)
        result.transitions += 1
        return result

    monkeypatch.setattr(sweep, "run", run)
    sweep.main()
    moved, verdicts, _ = capsys.readouterr().out.splitlines()
    assert moved != cases
    assert verdicts == want


def test_sweep_traces_line_hashes_the_trace_hashes_alone(monkeypatch, capsys):
    sweep = load_tool("trace_sweep")
    table = [("fig1", 0, "causalec"), ("ev_differential", 0, "eventualec")]
    monkeypatch.setattr(sweep, "cases", lambda: table)
    traces = "".join(sweep.case_hashes(*case)[0] for case in table)
    want = f"2 traces {hashlib.sha256(traces.encode()).hexdigest()}"
    sweep.main()
    cases, _, line = capsys.readouterr().out.splitlines()
    assert line == want

    # a moved transition count changes the report, so the cases line, but
    # not the traces line
    real_run = sweep.run

    def run(*args, **kwargs):
        result = real_run(*args, **kwargs)
        result.transitions += 1
        return result

    monkeypatch.setattr(sweep, "run", run)
    sweep.main()
    moved, _, line = capsys.readouterr().out.splitlines()
    assert moved != cases
    assert line == want


def skip_unless_git_checkout():
    if subprocess.run(["git", "-C", os.path.dirname(TOOLS), "rev-parse", "HEAD"],
                      capture_output=True).returncode:
        pytest.skip("not a git checkout")


def test_bench_pairs_head_against_itself_has_equal_fingerprints():
    skip_unless_git_checkout()
    proc = subprocess.run([sys.executable, os.path.join(TOOLS, "bench_pairs.py"),
                           "--parent", "HEAD", "--change", "HEAD", "--seconds", "0",
                           "scale:1"], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "scale seed 1: fingerprints equal"


def bench_child(pid):
    """The pid of ``pid``'s ``bench/run.py`` child, or None."""
    with open(f"/proc/{pid}/task/{pid}/children") as fh:
        children = fh.read().split()
    for child in children:
        try:
            with open(f"/proc/{child}/cmdline", "rb") as fh:
                if b"bench/run.py" in fh.read():
                    return int(child)
        except OSError:  # it exited in between
            pass
    return None


def test_bench_pairs_sigterm_stops_its_run_and_removes_its_copies(tmp_path):
    skip_unless_git_checkout()
    if not os.path.exists(f"/proc/{os.getpid()}/task/{os.getpid()}/children"):
        pytest.skip("no /proc children list")
    proc = subprocess.Popen([sys.executable, os.path.join(TOOLS, "bench_pairs.py"),
                             "--parent", "HEAD", "--change", "HEAD", "--seconds", "30",
                             "scale:1"], env=dict(os.environ, TMPDIR=str(tmp_path)),
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        child = None
        while child is None and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            child = bench_child(proc.pid)
        assert child is not None, "no bench/run.py child started"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=60) == 143
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert not os.path.exists(f"/proc/{child}")
    assert os.listdir(tmp_path) == []


def test_bench_pairs_claim_rule():
    pairs = load_tool("bench_pairs")

    def runs(parent, change):
        return [({"metrics": {"m": p}}, {"metrics": {"m": c}}) for p, c in zip(parent, change)]

    parent = [100, 101, 102, 103, 104, 105, 106, 107, 108, 109]
    faster = [v - 10 for v in parent]
    summary = pairs.compare(runs(parent, faster), "m", lower_is_better=True)
    assert summary["change_better_pairs"] == 10 and summary["parent_iqr"] == 4.5
    assert pairs.claim_met(summary, lower_is_better=True)
    assert not pairs.claim_met(summary, lower_is_better=False)
    # one more lost pair than nine tenths allows
    assert not pairs.claim_met(pairs.compare(
        runs(parent, faster[:8] + parent[8:]), "m", lower_is_better=True), True)
    # every pair won, by less than the parent's spread
    assert not pairs.claim_met(pairs.compare(
        runs(parent, [v - 4 for v in parent]), "m", lower_is_better=True), True)
    # nine pairs are too few
    assert not pairs.claim_met(pairs.compare(
        runs(parent[:9], faster[:9]), "m", lower_is_better=True), True)
