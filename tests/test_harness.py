"""CLI surface: exit codes, output formats, scenario emission."""

import hashlib
import json
import os

import pytest

from causalec.harness import main, parse_seeds


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scn")
    assert main(["scenarios", "--out", str(out)]) == 0
    return out


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


def test_scenarios_emits_all_bundled_files(scenario_dir):
    names = sorted(p for p in os.listdir(scenario_dir))
    assert names == [
        "appendix_a.json",
        "encoding_scenario_1.json",
        "encoding_scenario_2.json",
        "ev_differential.json",
        "fig1.json",
        "read_scenario_1.json",
        "read_scenario_2.json",
    ]
    for name in names:
        json.load(open(scenario_dir / name))


def test_scenarios_reproduces_committed_files(scenario_dir):
    committed = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "scenarios")
    assert sorted(os.listdir(committed)) == sorted(os.listdir(scenario_dir))
    for name in os.listdir(committed):
        with open(os.path.join(committed, name), "rb") as want:
            assert (scenario_dir / name).read_bytes() == want.read(), name


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
    fig1 = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scenarios", "fig1.json")
    reports = {}
    for workers in ("1", "2"):
        rc = main(["run", fig1, "--seeds", "0..3", "--format", "json", "--workers", workers])
        assert rc == 0
        reports[workers] = capsys.readouterr().out
    assert [json.loads(line)["seed"] for line in reports["2"].splitlines()] == [0, 1, 2, 3]
    assert reports["2"] == reports["1"]


def test_malformed_scenario_exits_two(tmp_path, capsys):
    doc = json.load(open("scenarios/fig1.json"))
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


def test_latency_malformed_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{}")
    assert main(["latency", str(path)]) == 2


@pytest.mark.parametrize("cmd", ["run", "latency"])
def test_undecodable_file_exits_two(tmp_path, capsys, cmd):
    # bytes that are not UTF-8 once ended in a traceback
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe\x00")
    assert main([cmd, str(path)]) == 2
    assert "codec can't decode" in capsys.readouterr().err
