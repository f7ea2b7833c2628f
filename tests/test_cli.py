"""Command-line behavior: output lines, file artifacts, exit codes."""
import argparse
import csv
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cd_router
from cd_router import cli
from cd_router import instance as instance_mod
from cd_router.cli import EXIT_CAPACITY, EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main
from cd_router.fixer import FixerError
from cd_router.instance import encode, shared_path_instance

from conftest import FIXTURES, fixture_text


FIG1 = str(FIXTURES / "fig1.json")


def test_analyze_prints_congestion_and_dilation(capsys):
    assert main(["analyze", FIG1]) == EXIT_OK
    assert capsys.readouterr().out == "C=2 D=4 ok\n"


def test_analyze_reports_violations(tmp_path, capsys):
    doc = json.loads(fixture_text("fig1.json"))
    doc["paths"][1][-1] = "e6"  # repeat an edge within the path
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == EXIT_FAILURE
    out = capsys.readouterr().out
    assert out.startswith("invalid:")
    assert "repeated" in out


def test_analyze_rejects_ids_that_are_not_strings(tmp_path, capsys):
    # with ids passed through str(), this decoded to a valid instance
    doc = {"nodes": ["1", "2"], "edges": [{"id": 1, "tail": 1, "head": 2}], "paths": [[1]]}
    path = tmp_path / "numeric.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == EXIT_FAILURE
    assert "is not a JSON string" in capsys.readouterr().err


def test_analyze_rejects_a_repeated_node_id(tmp_path, capsys):
    doc = json.loads(fixture_text("fig1.json"))
    node = doc["nodes"][0]
    doc["nodes"].append(node)
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", str(path)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: malformed instance document: node {node} is repeated\n"


def test_analyze_missing_file(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "nope.json")]) == EXIT_FAILURE
    assert "error:" in capsys.readouterr().err


def test_schedule_reruns_are_byte_identical(tmp_path, capsys):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    rep_a, rep_b = tmp_path / "ra.json", tmp_path / "rb.json"
    args = [FIG1, "--seed", "9", "--delta", "2"]
    assert main(["schedule", *args, "--out", str(out_a), "--report", str(rep_a)]) == EXIT_OK
    assert main(["schedule", *args, "--out", str(out_b), "--report", str(rep_b)]) == EXIT_OK
    assert out_a.read_bytes() == out_b.read_bytes()
    assert rep_a.read_bytes() == rep_b.read_bytes()
    err = capsys.readouterr().err
    assert "variant=plain" in err
    assert "ratio=" in err
    report = json.loads(rep_a.read_text())
    assert report["load"] >= 1


def test_schedule_then_simulate_round_trip(tmp_path, capsys):
    sched = tmp_path / "sched.json"
    assert main(["schedule", FIG1, "--out", str(sched)]) == EXIT_OK
    trace_csv = tmp_path / "loads.csv"
    arrivals_csv = tmp_path / "arrivals.csv"
    code = main([
        "simulate", FIG1, str(sched),
        "--capacity", "1", "--max-makespan", "10000",
        "--trace-csv", str(trace_csv), "--arrivals-csv", str(arrivals_csv),
    ])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "load: PASS" in out
    assert "makespan: PASS" in out
    assert out.strip().endswith("PASS")
    with open(trace_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["edge", "slot", "load"]
    assert all(int(r[2]) == 1 for r in rows[1:])
    with open(arrivals_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["packet", "arrival"]
    assert len(rows) == 4


def test_simulate_flags_the_zero_wait_collision(tmp_path, capsys):
    sched = tmp_path / "zero.json"
    sched.write_text(json.dumps({
        "packets": [{"waits": [0, 0, 0, 0]}, {"waits": [0, 0, 0, 0, 0]}, {"waits": [0, 0, 0, 0]}]
    }))
    assert main(["simulate", FIG1, str(sched)]) == EXIT_FAILURE
    out = capsys.readouterr().out
    assert "load: FAIL" in out
    assert "e4" in out
    assert out.strip().endswith("FAIL")


def test_schedule_refuses_an_invalid_instance(tmp_path, capsys):
    doc = json.loads(fixture_text("fig1.json"))
    doc["paths"][1][-1] = "e6"  # repeat an edge within the path
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["schedule", str(path)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    violations = instance_mod.validate(instance_mod.decode(path.read_text())).violations
    assert lines == [f"invalid: {violation}" for violation in violations]
    assert "repeated" in captured.err


@pytest.mark.parametrize("argv, code", [
    (["schedule", "{bad}", "--out", "{a}", "--report", "{b}"], EXIT_FAILURE),
    (["schedule", FIG1, "--out", "{a}", "--report", "{b}"], EXIT_CAPACITY),
    (["simulate", "{bad}", "{schedule}", "--trace-csv", "{a}", "--arrivals-csv", "{b}"], EXIT_FAILURE),
    (["simulate", FIG1, "{missing}", "--trace-csv", "{a}", "--arrivals-csv", "{b}"], EXIT_FAILURE),
], ids=["schedule-invalid", "schedule-fixer-error", "simulate-invalid", "simulate-unreadable"])
@pytest.mark.parametrize("existing", [(), ("a",), ("a", "b")], ids=["none", "one", "both"])
def test_a_failed_command_leaves_its_outputs_as_they_were(monkeypatch, tmp_path, capsys, argv, code, existing):
    doc = json.loads(fixture_text("fig1.json"))
    doc["paths"][1][-1] = "e6"  # repeat an edge within the path
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    schedule = tmp_path / "schedule.json"
    assert main(["schedule", FIG1, "--out", str(schedule)]) == EXIT_OK
    capsys.readouterr()
    if code == EXIT_CAPACITY:
        def exhausted(*args):
            raise FixerError("level 0: all relax factors exhausted")

        monkeypatch.setattr(cli, "run_pipeline", exhausted)
    # an existing file keeps its bytes, an empty one included; a missing one
    # that the command fails before writing is not left behind
    before = {"a": b"kept\n", "b": b""}
    outputs = {name: tmp_path / f"{name}.out" for name in before}
    for name in existing:
        outputs[name].write_bytes(before[name])
    paths = {"bad": bad, "schedule": schedule, "missing": tmp_path / "nope.json", **outputs}
    assert main([arg.format(**paths) for arg in argv]) == code
    for name, path in outputs.items():
        if name in existing:
            assert path.read_bytes() == before[name]
        else:
            assert not path.exists()


def test_an_output_made_before_an_unwritable_one_is_not_left_behind(tmp_path, capsys):
    out = tmp_path / "out.json"
    bad = tmp_path / "missing" / "report.json"
    assert main(["schedule", FIG1, "--out", str(out), "--report", str(bad)]) == EXIT_FAILURE
    assert not out.exists()


def test_a_failing_replay_keeps_its_csvs(tmp_path, capsys):
    # a FAIL verdict is a finished command: its load rows are what shows the collision
    sched = tmp_path / "zero.json"
    sched.write_text(json.dumps({
        "packets": [{"waits": [0, 0, 0, 0]}, {"waits": [0, 0, 0, 0, 0]}, {"waits": [0, 0, 0, 0]}]
    }))
    trace_csv = tmp_path / "loads.csv"
    assert main(["simulate", FIG1, str(sched), "--trace-csv", str(trace_csv)]) == EXIT_FAILURE
    with open(trace_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["edge", "slot", "load"]
    assert any(int(r[2]) > 1 for r in rows[1:])


def _assert_cannot_read(argv, path, capsys):
    # one `error:` line, as for an instance that cannot be read
    assert main(argv) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {path}: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("text, err", [
    (
        json.dumps({"nodes": ["a", "b"], "edges": [{"id": "e", "tail": "a", "head": "b"}], "paths": [["e", "e"]]}),
        "invalid: path 0: edge e repeated\ninvalid: path 0: edge e tail a does not continue from b\n",
    ),
    ("nope {", "error: not valid JSON: Expecting value: line 1 column 1 (char 0)\n"),
], ids=["invalid", "not-json"])
def test_every_command_reports_a_bad_instance_alike(tmp_path, capsys, text, err):
    # `main` owns the report: one `invalid:` line per violation, one `error:`
    # line for a document that does not decode; validation comes before the
    # schedule is read, so a missing one is never named
    inst = tmp_path / "bad.json"
    inst.write_text(text)
    for argv in (["schedule"], ["simulate"], ["lowerbound", "solve"]):
        extra = [str(tmp_path / "missing.json")] if argv == ["simulate"] else []
        assert main([*argv, str(inst), *extra]) == EXIT_FAILURE
        assert capsys.readouterr() == ("", err)


def test_simulate_cannot_read_the_schedule(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    _assert_cannot_read(["simulate", FIG1, str(missing)], missing, capsys)
    _assert_cannot_read(["simulate", str(missing), str(missing)], missing, capsys)


def test_simulate_cannot_read_a_schedule_that_is_a_directory_or_not_text(tmp_path, capsys):
    _assert_cannot_read(["simulate", FIG1, str(tmp_path)], tmp_path, capsys)
    binary = tmp_path / "schedule.json"
    binary.write_bytes(b"\xff\xfe\x00")
    _assert_cannot_read(["simulate", FIG1, str(binary)], binary, capsys)
    _assert_cannot_read(["analyze", str(binary)], binary, capsys)


def test_simulate_rejects_malformed_schedules(tmp_path, capsys):
    sched = tmp_path / "bad.json"
    sched.write_text(json.dumps({"packets": [{"waits": [-1, 0, 0, 0]}]}))
    assert main(["simulate", FIG1, str(sched)]) == EXIT_FAILURE
    assert "error:" in capsys.readouterr().err


def test_simulate_rejects_non_integer_waits(tmp_path, capsys):
    sched = tmp_path / "coerced.json"
    sched.write_text(json.dumps({
        "packets": [{"waits": [2.7, "3", True, 0]}, {"waits": [0] * 5}, {"waits": [0] * 4}]
    }))
    assert main(["simulate", FIG1, str(sched)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: packet 0: wait 2.7 is not a JSON integer" in captured.err


def test_simulate_replays_a_huge_wait_at_once(tmp_path, capsys):
    huge = 10**9
    inst = tmp_path / "shared.json"
    inst.write_text(encode(shared_path_instance(2, 5)))
    sched = tmp_path / "huge.json"
    sched.write_text(json.dumps({
        "packets": [{"waits": [0, 0, huge, 0, 0, 0]}, {"waits": [1, 0, 0, 0, 0, 0]}]
    }))
    trace_csv = tmp_path / "loads.csv"
    start = time.perf_counter()
    code = main([
        "simulate", str(inst), str(sched), "--max-makespan", str(huge + 5),
        "--max-wait", str(huge), "--trace-csv", str(trace_csv),
    ])
    elapsed = time.perf_counter() - start
    assert code == EXIT_OK
    assert capsys.readouterr().out == (
        "load: PASS (max load 1 <= 1)\n"
        f"makespan: PASS (makespan {huge + 5} vs bound {huge + 5})\n"
        f"edge_wait: PASS (max per-edge wait {huge} <= {huge})\n"
        f"load=1 makespan={huge + 5} PASS\n"
    )
    with open(trace_csv, newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 2 * 5
    assert elapsed < 0.5


@pytest.mark.parametrize("paths, waits, violation", [
    ([["e0", "zz"]], [[0, 0, 0]], "path 0: unknown edge zz"),
    ([[]], [[0]], "path 0: empty"),
    ([["e0", "e1"]], [[0, 0, 0]], "path 0: edge e1 tail a does not continue from b"),
])
def test_simulate_validates_the_instance(tmp_path, capsys, paths, waits, violation):
    # replay itself never validates: an unknown edge replayed as a pass,
    # and an empty path died with an IndexError
    doc = {
        "nodes": ["a", "b"],
        "edges": [{"id": "e0", "tail": "a", "head": "b"}, {"id": "e1", "tail": "a", "head": "b"}],
        "paths": paths,
    }
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps(doc))
    sched = tmp_path / "sched.json"
    sched.write_text(json.dumps({"packets": [{"waits": w} for w in waits]}))
    assert main(["simulate", str(inst), str(sched)]) == EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"invalid: {violation}\n" in captured.err


def test_lowerbound_gen_is_reproducible(tmp_path, capsys):
    out = tmp_path / "gadget.json"
    assert main(["lowerbound", "gen", "--n", "2", "--seed", "0", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == fixture_text("lb-n2.json")
    assert main(["lowerbound", "gen", "--n", "2", "--seed", "0"]) == EXIT_OK
    assert capsys.readouterr().out == fixture_text("lb-n2.json")


def test_lowerbound_solve_the_fixture(capsys):
    assert main(["lowerbound", "solve", str(FIXTURES / "lb-n2.json")]) == EXIT_OK
    assert capsys.readouterr().out == "optimal_makespan=8 C=2 D=7\n"


@pytest.mark.parametrize("argv, out", [
    (["analyze", FIG1], "C=2 D=4 ok\n"),
    (["lowerbound", "solve", str(FIXTURES / "lb-n2.json")], "optimal_makespan=8 C=2 D=7\n"),
    (["schedule", FIG1, "--out", os.devnull], ""),
    (["simulate", FIG1, "{schedule}"], "load: PASS (max load 1 <= 1)\nload=1 makespan=9 PASS\n"),
])
def test_a_command_validates_its_instance_once(monkeypatch, tmp_path, capsys, argv, out):
    schedule = tmp_path / "schedule.json"
    assert main(["schedule", FIG1, "--out", str(schedule)]) == EXIT_OK
    capsys.readouterr()
    argv = [arg.format(schedule=schedule) for arg in argv]
    calls = []
    validate = instance_mod.validate

    def counted(inst):
        calls.append(inst)
        return validate(inst)

    # `stats` looks the name up in its module, `cmd_analyze` in the one cli imported
    monkeypatch.setattr(instance_mod, "validate", counted)
    monkeypatch.setattr(cli, "validate", counted)
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == out
    assert len(calls) == 1


def test_lowerbound_margin_exact_lines(capsys):
    assert main(["lowerbound", "margin", "--eps", "0.000032"]) == EXIT_OK
    assert capsys.readouterr().out == "phi=5.24e-4 < 7.27e-4 : separation holds\n"
    assert main(["lowerbound", "margin", "--eps", "0.5"]) == EXIT_FAILURE
    assert "separation fails" in capsys.readouterr().out
    # eps / (1 + eps) rounds to 1.0 here; phi(1e20) is 67.9, not 0
    assert main(["lowerbound", "margin", "--eps", "1e20"]) == EXIT_FAILURE
    assert capsys.readouterr().out == "phi=6.79e1 >= 7.27e-4 : separation fails\n"


def test_bench_emits_the_csv_contract(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--count", "2", "--delta", "2", "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "instance", "seed", "variant", "delta", "relax", "gamma",
        "load", "makespan", "C", "D", "ratio",
    ]
    assert len(rows) == 1 + 2 * 2  # two instances, two variants each
    variants = {r[2] for r in rows[1:]}
    assert variants == {"plain", "buffered"}
    assert "wrote 4 rows" in capsys.readouterr().out


def test_bench_rows_are_pinned_and_validate_each_instance_once(tmp_path, monkeypatch):
    calls = []
    validate = instance_mod.validate
    monkeypatch.setattr(instance_mod, "validate", lambda inst: calls.append(inst) or validate(inst))
    out = tmp_path / "bench.csv"
    assert main(["bench", "--count", "3", "--out", str(out)]) == EXIT_OK
    assert len(calls) == 6  # once per job, inside run_pipeline
    # every byte: the rows carry no wall-clock column
    assert out.read_bytes().split(b"\r\n") == [
        b"instance,seed,variant,delta,relax,gamma,load,makespan,C,D,ratio",
        b"random-0,0/bench0,plain,2,1,1,1,3,1,2,1.0000",
        b"random-0,0/bench0,buffered,2,1,1,1,3,1,2,1.0000",
        b"random-1,0/bench1,plain,4,1,1,2,15,5,7,1.2500",
        b"random-1,0/bench1,buffered,4,1,1,2,15,5,7,1.2500",
        b"random-2,0/bench2,plain,4,1,1,2,17,5,8,1.3077",
        b"random-2,0/bench2,buffered,4,1,1,2,17,5,8,1.3077",
        b"",
    ]


def test_bench_reports_a_failed_job_and_keeps_the_other_rows(tmp_path, monkeypatch, capsys):
    run = cli.run_pipeline

    def failing(instance, config):
        if (config.seed, config.variant) == ("0/bench1", "buffered"):
            raise FixerError("level 0: all relax factors exhausted")
        return run(instance, config)

    monkeypatch.setattr(cli, "run_pipeline", failing)
    out = tmp_path / "bench.csv"
    assert main(["bench", "--count", "2", "--out", str(out)]) == EXIT_CAPACITY
    captured = capsys.readouterr()
    assert captured.err == "job 1 (buffered): level 0: all relax factors exhausted\n"
    assert captured.out == f"wrote 3 rows to {out}\n"
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [(r[0], r[2]) for r in rows[1:]] == [
        ("random-0", "plain"), ("random-0", "buffered"), ("random-1", "plain"),
    ]


def test_bench_unknown_suite(tmp_path, capsys):
    # `bench` runs the random suite only, so it takes no --suite
    out = tmp_path / "x.csv"
    assert main(["bench", "--suite", "random", "--out", str(out)]) == EXIT_USAGE
    assert "unrecognized arguments: --suite random" in capsys.readouterr().err
    assert not out.exists()


def test_bench_takes_no_jobs_flag(tmp_path, capsys):
    # `bench` runs its jobs one after another in one process
    out = tmp_path / "x.csv"
    assert main(["bench", "--count", "1", "--jobs", "2", "--out", str(out)]) == EXIT_USAGE
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    assert not out.exists()


def test_usage_errors_exit_64(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["schedule"]) == EXIT_USAGE
    assert main(["schedule", FIG1, "--variant", "imaginary"]) == EXIT_USAGE
    assert main(["bench"]) == EXIT_USAGE  # --out is required
    capsys.readouterr()


def test_schedule_takes_no_finalize_rule(capsys):
    # the levels a run leaves open always take draw 1
    assert main(["schedule", FIG1, "--finalize", "greedy"]) == EXIT_USAGE
    assert "unrecognized arguments: --finalize greedy" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["0", "-3", "1", "two"])
def test_bad_delta_exits_64(tmp_path, capsys, delta):
    assert main(["schedule", FIG1, "--delta", delta]) == EXIT_USAGE
    out = tmp_path / "x.csv"
    assert main(["bench", "--count", "1", "--delta", delta, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert "argument --delta" in capsys.readouterr().err


@pytest.mark.parametrize("capacity", ["0", "-1"])
def test_bad_capacity_exits_64(tmp_path, capsys, capacity):
    sched = tmp_path / "sched.json"
    assert main(["schedule", FIG1, "--out", str(sched)]) == EXIT_OK
    assert main(["simulate", FIG1, str(sched), "--capacity", capacity]) == EXIT_USAGE
    assert "argument --capacity" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--max-makespan", "-1"), ("--max-wait", "-5")])
def test_bad_simulate_bounds_exit_64(tmp_path, capsys, flag, value):
    sched = tmp_path / "sched.json"
    assert main(["schedule", FIG1, "--out", str(sched)]) == EXIT_OK
    assert main(["simulate", FIG1, str(sched), flag, value]) == EXIT_USAGE
    assert f"argument {flag}" in capsys.readouterr().err
    # a bound of zero is a bound, not a usage error
    assert main(["simulate", FIG1, str(sched), flag, "0"]) != EXIT_USAGE


@pytest.mark.parametrize("flag, value", [("--count", "0"), ("--count", "-2")])
def test_bad_bench_counts_exit_64(tmp_path, capsys, flag, value):
    out = tmp_path / "x.csv"
    assert main(["bench", "--count", "1", flag, value, "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()
    assert f"argument {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["lowerbound", "solve", str(FIXTURES / "lb-n2.json"), "--horizon", "-5"], "--horizon"),
    (["lowerbound", "solve", str(FIXTURES / "lb-n2.json"), "--horizon", "1.5"], "--horizon"),
    (["lowerbound", "gen", "--n", "0"], "--n"),
    (["lowerbound", "gen", "--n", "-2"], "--n"),
    (["lowerbound", "margin", "--eps", "nan"], "--eps"),
    (["lowerbound", "margin", "--eps", "inf"], "--eps"),
    (["lowerbound", "margin", "--eps", "-1"], "--eps"),
    (["lowerbound", "margin", "--eps", "tiny"], "--eps"),
])
def test_bad_lowerbound_flags_exit_64(capsys, argv, flag):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"argument {flag}" in captured.err
    assert captured.out == ""


def test_lowerbound_edge_values_are_not_usage_errors(capsys):
    # no schedule fits a horizon of 0: an answer, not a usage error
    assert main(["lowerbound", "solve", str(FIXTURES / "lb-n2.json"), "--horizon", "0"]) == EXIT_OK
    assert capsys.readouterr().out == "optimal_makespan=None C=2 D=7\n"
    assert main(["lowerbound", "margin", "--eps", "0"]) == EXIT_OK
    assert main(["lowerbound", "gen", "--n", "1"]) == EXIT_OK
    capsys.readouterr()


def test_bad_values_exit_1_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("nope {")
    assert main(["lowerbound", "solve", str(bad)]) == EXIT_FAILURE
    assert "error:" in capsys.readouterr().err
    looped = tmp_path / "looped.json"
    looped.write_text(json.dumps({
        "nodes": ["a", "b"], "edges": [{"id": "e", "tail": "a", "head": "b"}], "paths": [["e", "e"]],
    }))
    assert main(["lowerbound", "solve", str(looped)]) == EXIT_FAILURE
    assert capsys.readouterr().err.startswith("invalid:")


@pytest.mark.parametrize("argv", [
    ["schedule", FIG1, "--out", "{bad}"],
    ["schedule", FIG1, "--out", os.devnull, "--report", "{bad}"],
    ["simulate", FIG1, "{schedule}", "--trace-csv", "{bad}"],
    ["simulate", FIG1, "{schedule}", "--arrivals-csv", "{bad}"],
    ["bench", "--count", "1", "--out", "{bad}"],
    ["lowerbound", "gen", "--n", "2", "--out", "{bad}"],
], ids=["schedule-out", "schedule-report", "simulate-trace-csv", "simulate-arrivals-csv", "bench-out",
        "lowerbound-gen-out"])
def test_an_unwritable_output_path_is_one_error_line(monkeypatch, tmp_path, capsys, argv):
    bad = tmp_path / "missing" / "out"
    schedule = tmp_path / "schedule.json"
    assert main(["schedule", FIG1, "--out", str(schedule)]) == EXIT_OK
    capsys.readouterr()
    # the path fails before any work runs and before anything is printed
    calls = []
    for owner, name in [(cli, "run_pipeline"), (cli, "simulate"), (cli, "_bench_one"), (cli.lb_mod, "generate")]:
        monkeypatch.setattr(owner, name, lambda *args, name=name: calls.append(name))
    assert main([arg.format(bad=bad, schedule=schedule) for arg in argv]) == EXIT_FAILURE
    assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{bad}'\n")
    assert calls == []


@pytest.mark.parametrize("argv, work", [
    (["schedule", FIG1, "--out", "-"], "run_pipeline"),
    (["schedule", FIG1, "--report", "-"], None),
    (["simulate", FIG1, "{schedule}", "--trace-csv", "-"], None),
    (["simulate", FIG1, "{schedule}", "--arrivals-csv", "-"], None),
    (["bench", "--count", "1", "--out", "-"], None),
    (["lowerbound", "gen", "--n", "2", "--out", "-"], "generate"),
], ids=["schedule-out", "schedule-report", "simulate-trace-csv", "simulate-arrivals-csv", "bench-out",
        "lowerbound-gen-out"])
def test_a_dash_output_is_stdout_or_a_usage_error(monkeypatch, tmp_path, capsys, argv, work):
    schedule = tmp_path / "schedule.json"
    assert main(["schedule", FIG1, "--out", str(schedule)]) == EXIT_OK
    capsys.readouterr()
    printed = {"run_pipeline": schedule.read_text(), "generate": fixture_text("lb-n2.json")}
    monkeypatch.chdir(tmp_path)
    calls = []
    for owner, name in [(cli, "run_pipeline"), (cli, "simulate"), (cli, "_bench_one"), (cli.lb_mod, "generate")]:
        monkeypatch.setattr(owner, name, lambda *args, name=name, run=getattr(owner, name): calls.append(name) or run(*args))
    code = main([arg.format(schedule=schedule) for arg in argv])
    captured = capsys.readouterr()
    assert not (tmp_path / "-").exists()
    if work is None:
        # a flag that takes a file only: one usage error, before any work
        flag = argv[argv.index("-") - 1]
        assert code == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("usage: cd-router ")
        assert captured.err.endswith(
            f"error: argument {flag}: '-' is not a file: this command prints its own lines to stdout\n"
        )
        assert captured.err.count("error:") == 1
        assert calls == []
    else:
        # `-` is stdout
        assert code == EXIT_OK
        assert captured.out == printed[work]
        assert calls == [work]


def test_capacity_errors_exit_2(tmp_path, capsys):
    big = tmp_path / "big.json"
    assert main(["lowerbound", "gen", "--n", "6", "--seed", "1", "--out", str(big)]) == EXIT_OK
    assert main(["lowerbound", "solve", str(big)]) == EXIT_CAPACITY
    assert "error:" in capsys.readouterr().err


def test_log_env_is_honored(monkeypatch, capsys):
    monkeypatch.setenv("CD_ROUTER_LOG", "debug")
    assert main(["analyze", FIG1]) == EXIT_OK
    assert "C=2 D=4 ok" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["", "DEBUG", "info"])
def test_log_env_accepts_a_level_or_nothing(monkeypatch, capsys, value):
    monkeypatch.setenv("CD_ROUTER_LOG", value)
    assert main(["analyze", FIG1]) == EXIT_OK
    assert capsys.readouterr().out == "C=2 D=4 ok\n"


@pytest.mark.parametrize("value", ["verbose", "warning", "0"])
def test_an_unknown_log_level_is_a_usage_error(monkeypatch, tmp_path, capsys, value):
    monkeypatch.setenv("CD_ROUTER_LOG", value)
    out = tmp_path / "s.json"
    assert main(["schedule", FIG1, "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: CD_ROUTER_LOG must be error, info or debug, not {value!r}\n"
    assert not out.exists()  # refused before any work


def test_console_entry_point():
    # the child imports the package under test, wherever it was found
    src = str(Path(cd_router.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "cd_router.cli", "analyze", FIG1],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout == "C=2 D=4 ok\n"


def _leaf_parsers(parser: argparse.ArgumentParser, prefix: tuple[str, ...] = ()):
    """(command words, parser) for every subcommand that takes no further subcommand."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(prefix), parser
        return
    for name, sub in subs[0].choices.items():
        yield from _leaf_parsers(sub, prefix + (name,))


def test_readme_synopses_list_each_subcommands_arguments():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    listing = readme.split("Subcommands and flags:", 1)[1].split("\nExit codes:", 1)[0]
    spans = [" ".join(span.split()) for span in re.findall(r"`([^`]+)`", listing)]
    leaves = dict(_leaf_parsers(cli.build_parser()))
    assert len(leaves) == 7
    for command, parser in leaves.items():
        # a synopsis is the command words followed by its arguments
        synopses = [span for span in spans if span.startswith(command + " ")]
        assert len(synopses) == 1, (command, synopses)
        words = re.findall(r"[^\s\[\]]+", synopses[0])[len(command.split()):]
        flags = {o for a in parser._actions for o in a.option_strings if o.startswith("--")}
        assert {w for w in words if w.startswith("--")} == flags - {"--help"}, command
        positionals = [
            w for before, w in zip(["", *words], words) if w.isupper() and not before.startswith("--")
        ]
        assert positionals == [a.dest.upper() for a in parser._actions if not a.option_strings], command
