"""CLI surface: exit codes, output formats, the bundled scenario files."""

import concurrent.futures
import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import bundled
from causalec.harness import main, parse_seeds
from causalec.scenarios import scenario_from_json


@pytest.fixture(scope="module")
def scenario_dir():
    return pathlib.Path(bundled.SCENARIOS)


def test_parse_seeds():
    assert parse_seeds("7") == [7]
    assert parse_seeds("0..3") == [0, 1, 2, 3]


# each override once ran: a cap of 0 or -1 printed "[ok] transitions=0" and
# an empty seed range ran nothing, both with exit 0; a worker count of 0 or
# -2 ran serially, also with exit 0
@pytest.mark.parametrize("flag,value", [
    ("--step-cap", "0"), ("--step-cap", "-1"), ("--step-cap", "x"),
    ("--seeds", "5..2"), ("--workers", "0"), ("--workers", "-2")])
def test_out_of_range_override_exits_two(scenario_dir, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["run", str(scenario_dir / "fig1.json"), flag, value])
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_in_range_overrides_run(scenario_dir, capsys):
    rc = main(["run", str(scenario_dir / "fig1.json"), "--seeds", "3..3",
               "--step-cap", "1"])
    assert rc == 1  # the cap stops the run before it quiesces
    assert "seed    3 [FAIL] " in capsys.readouterr().out


def test_fairness_flag_is_gone(scenario_dir, capsys):
    # the fairness window is fixed at 8 steps per server
    with pytest.raises(SystemExit) as exc:
        main(["run", str(scenario_dir / "fig1.json"), "--fairness", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fairness" in capsys.readouterr().err


def test_each_scenario_file_loads_under_its_stem():
    # the trace tables order their cases by the name, the files by the stem
    assert bundled.NAMES == ["appendix_a", "encoding_scenario_1", "encoding_scenario_2",
                             "ev_differential", "fig1", "read_scenario_1", "read_scenario_2"]
    for name in bundled.NAMES:
        assert scenario_from_json(bundled.path(name)).name == name


def test_scenarios_subcommand_is_gone(tmp_path, capsys):
    # the files under scenarios/ are the only copy, so there is nothing to emit
    with pytest.raises(SystemExit) as exc:
        main(["scenarios", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'scenarios'" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


def test_run_green_scenario_exits_zero(scenario_dir, capsys):
    rc = main(["run", str(scenario_dir / "ev_differential.json"), "--seeds", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[ok]" in out


def test_run_protocol_override_flags_failure(scenario_dir, capsys):
    rc = main(["run", str(scenario_dir / "ev_differential.json"),
               "--seeds", "0", "--protocol", "eventualec"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "causal=FAIL" in out


def test_run_json_format(scenario_dir, capsys):
    rc = main(["run", str(scenario_dir / "ev_differential.json"),
               "--seeds", "0", "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["ok"] and report["seed"] == 0
    assert {c["name"] for c in report["checks"]} == {
        "causal", "eventual", "storage", "locality+liveness", "invariants"}


def test_run_multiple_seeds(scenario_dir, capsys):
    rc = main(["run", str(scenario_dir / "ev_differential.json"), "--seeds", "0..2"])
    assert rc == 0
    assert capsys.readouterr().out.count("[ok]") == 3


def test_workers_match_a_single_process(capsys):
    # the process pool must give the reports that one process gives, in seed order
    fig1 = bundled.path("fig1")
    reports = {}
    for workers in ("1", "2"):
        rc = main(["run", fig1, "--seeds", "0..3", "--format", "json", "--workers", workers])
        assert rc == 0
        reports[workers] = capsys.readouterr().out
    assert [json.loads(line)["seed"] for line in reports["2"].splitlines()] == [0, 1, 2, 3]
    assert reports["2"] == reports["1"]


class InProcessPool:
    """Stands in for ``ProcessPoolExecutor``: records the worker count asked
    for and maps in this process, so no process is started."""

    requested = []

    def __init__(self, max_workers):
        self.requested.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize("seeds,workers,cpus,requested", [
    ("0..2", "64", 16, [3]),  # one per seed
    ("0..5", "64", 4, [4]),  # one per CPU
    ("0", "8", 16, []),  # one seed runs in this process
    ("0..2", "8", 1, []),  # so does one CPU
])
def test_worker_count_is_capped(monkeypatch, capsys, seeds, workers, cpus, requested):
    fig1 = bundled.path("fig1")
    monkeypatch.setattr(InProcessPool, "requested", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert main(["run", fig1, "--seeds", seeds, "--workers", workers]) == 0
    pooled = capsys.readouterr().out
    assert InProcessPool.requested == requested
    assert main(["run", fig1, "--seeds", seeds, "--workers", "1"]) == 0
    assert capsys.readouterr().out == pooled
    assert InProcessPool.requested == requested


def test_malformed_scenario_exits_two(tmp_path, capsys):
    doc = bundled.doc("fig1")
    del doc["code"]["coeffs"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    rc = main(["run", str(path), "--seeds", "0"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "coeffs" in err


def test_run_writes_traces_and_reports(scenario_dir, tmp_path, capsys):
    out = tmp_path / "results"
    rc = main(["run", str(scenario_dir / "ev_differential.json"),
               "--seeds", "0", "--out", str(out)])
    assert rc == 0
    files = sorted(os.listdir(out))
    assert files == ["ev_differential-seed0.report.json",
                     "ev_differential-seed0.trace.jsonl"]
    report = json.load(open(out / files[0]))
    trace_bytes = (out / files[1]).read_bytes()
    assert report["trace_sha256"] == hashlib.sha256(trace_bytes).hexdigest()
    lines = trace_bytes.decode().splitlines()
    assert all(json.loads(line) for line in lines)


def test_latency_table(scenario_dir, capsys):
    rc = main(["latency", str(scenario_dir / "fig1.json")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "worst 4.50" in out and "average 2.83" in out
    assert "replication baseline: worst 6.00  average 2.80" in out


def test_latency_json(scenario_dir, capsys):
    rc = main(["latency", str(scenario_dir / "appendix_a.json"), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert report["coded"]["average_2dp"] == 2.7


def big12(tmp_path):
    """A valid 12-server, 6-object document: 7^12 replica placements, past
    what the replication baseline searches."""
    doc = bundled.doc("fig1")
    doc["name"] = "big12"
    doc["code"]["coeffs"] = [[int(i == j) for j in range(6)] for i in range(6)] + [
        [(i * j + 1) % 7 for j in range(6)] for i in range(1, 7)]
    doc["latency_graph"] = {"n": 12, "edges": [[i, j, 1 + (i * j) % 5]
                                               for i in range(1, 13) for j in range(i + 1, 13)]}
    doc["clients"] = [{"id": 1, "home": 1}]
    path = tmp_path / "big12.json"
    path.write_text(json.dumps(doc))
    return path


def test_latency_skips_an_oversized_replication_search(tmp_path, capsys):
    # the baseline's ValueError once ended the command in a traceback, exit 1
    path = big12(tmp_path)
    assert main(["latency", str(path)]) == 0
    out = capsys.readouterr().out
    assert "coded store:          worst" in out
    assert ("replication baseline: skipped, placement space too large for exhaustive "
            "search: 7^12 placements, over 2,000,000") in out
    assert main(["latency", str(path), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(report["per_pair"]) == 72
    assert report["replication"] is None
    assert report["replication_skipped"].startswith("placement space too large")


def test_package_runs_as_a_module():
    proc = subprocess.run([sys.executable, "-m", "causalec", "latency",
                           os.path.join(bundled.SCENARIOS, "fig1.json")],
                          env=dict(os.environ, PYTHONPATH=os.path.join(
                              os.path.dirname(bundled.SCENARIOS), "src")),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "worst 4.50" in proc.stdout
    assert "replication baseline: worst 6.00  average 2.80" in proc.stdout


def test_latency_malformed_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main(["latency", str(path)]) == 2


FIG1_TEXT = json.dumps(bundled.doc("fig1"))
# (id prefix, file bytes, what the error line says after the path), each
# once a traceback: bytes that are not UTF-8; nesting past the recursion
# limit; an integer longer than int() converts (4300 digits), whose
# ValueError is not a JSONDecodeError
UNDECODABLE = [
    ("", b"\xff\xfe\x00", ": scenario: 'utf-8' codec can't decode"),
    ("deep-", b"[" * 200_000 + b"]" * 200_000, ": scenario: maximum recursion depth"),
    ("long-", FIG1_TEXT.replace('"step_cap": 200000', '"step_cap": ' + "9" * 5000).encode(),
     ": scenario: Exceeds the limit"),
]


@pytest.mark.parametrize(
    "cmd,data,error",
    [(cmd, data, error) for _, data, error in UNDECODABLE for cmd in ("run", "latency")],
    ids=[prefix + cmd for prefix, _, _ in UNDECODABLE for cmd in ("run", "latency")])
def test_undecodable_file_exits_two(tmp_path, capsys, cmd, data, error):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    assert main([cmd, str(path)]) == 2
    assert f"error: {path}{error}" in capsys.readouterr().err


ASCII_LOCALE = dict(os.environ,
                    PYTHONPATH=os.path.join(os.path.dirname(bundled.SCENARIOS), "src"),
                    PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="POSIX")


def harness_under_ascii_locale(tmp_path, name, *args):
    """The harness run as a subprocess under the POSIX locale, on fig1
    renamed ``name`` and written as UTF-8; ``FILE`` in ``args`` stands for
    the document's path."""
    doc = bundled.doc("fig1")
    doc["name"] = name
    path = tmp_path / "utf8.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("utf-8"))
    argv = [str(path) if a == "FILE" else a for a in args]
    return subprocess.run([sys.executable, "-m", "causalec.harness", *argv],
                          env=ASCII_LOCALE, capture_output=True, text=True, timeout=120)


def test_utf8_file_loads_under_an_ascii_locale(tmp_path):
    # the file was read in the locale's encoding, so under the POSIX locale a
    # valid UTF-8 name failed with "'ascii' codec can't decode" and exit 2
    proc = harness_under_ascii_locale(tmp_path, "diff\u00e9", "latency", "FILE")
    assert proc.returncode == 0, proc.stderr
    assert "worst 4.50" in proc.stdout


def test_unencodable_output_name_exits_two_before_running(tmp_path):
    # the output files are named after the scenario; under the POSIX locale
    # this once ran every seed and then ended in a UnicodeEncodeError
    # traceback from opening the trace file
    out = tmp_path / "out"
    proc = harness_under_ascii_locale(tmp_path, "diff\u00e9", "run", "FILE",
                                      "--seeds", "0..1", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert "name 'diff\\xe9' cannot be a file name in the ascii file-system encoding" \
        in proc.stderr
    assert not out.exists()


def test_encodable_output_name_writes_under_an_ascii_locale(tmp_path):
    out = tmp_path / "out"
    proc = harness_under_ascii_locale(tmp_path, "plain", "run", "FILE", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((out / "plain-seed0.report.json").read_text(encoding="utf-8"))
    trace = (out / "plain-seed0.trace.jsonl").read_bytes()
    assert hashlib.sha256(trace).hexdigest() == report["trace_sha256"]
