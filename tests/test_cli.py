"""Command-line behavior: output lines, file artifacts, exit codes."""
import csv
import json
import subprocess
import sys

import pytest

from cd_router.cli import EXIT_CAPACITY, EXIT_FAILURE, EXIT_OK, EXIT_USAGE, main

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


def test_simulate_rejects_malformed_schedules(tmp_path, capsys):
    sched = tmp_path / "bad.json"
    sched.write_text(json.dumps({"packets": [{"waits": [-1, 0, 0, 0]}]}))
    assert main(["simulate", FIG1, str(sched)]) == EXIT_FAILURE
    assert "error:" in capsys.readouterr().err


def test_lowerbound_gen_is_reproducible(tmp_path, capsys):
    out = tmp_path / "gadget.json"
    assert main(["lowerbound", "gen", "--n", "2", "--seed", "0", "--out", str(out)]) == EXIT_OK
    assert out.read_text() == fixture_text("lb-n2.json")
    assert main(["lowerbound", "gen", "--n", "2", "--seed", "0"]) == EXIT_OK
    assert capsys.readouterr().out == fixture_text("lb-n2.json")


def test_lowerbound_solve_the_fixture(capsys):
    assert main(["lowerbound", "solve", str(FIXTURES / "lb-n2.json")]) == EXIT_OK
    assert capsys.readouterr().out == "optimal_makespan=8 C=2 D=7\n"


def test_lowerbound_margin_exact_lines(capsys):
    assert main(["lowerbound", "margin", "--eps", "0.000032"]) == EXIT_OK
    assert capsys.readouterr().out == "phi=5.24e-4 < 7.27e-4 : separation holds\n"
    assert main(["lowerbound", "margin", "--eps", "0.5"]) == EXIT_FAILURE
    assert "separation fails" in capsys.readouterr().out


def test_bench_emits_the_csv_contract(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--count", "2", "--delta", "2", "--out", str(out)]) == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "instance", "seed", "variant", "delta", "relax", "gamma",
        "load", "makespan", "C", "D", "ratio", "ms",
    ]
    assert len(rows) == 1 + 2 * 2  # two instances, two variants each
    variants = {r[2] for r in rows[1:]}
    assert variants == {"plain", "buffered"}
    assert "wrote 4 rows" in capsys.readouterr().out


def test_bench_parallel_jobs_match_serial(tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    assert main(["bench", "--count", "2", "--out", str(serial)]) == EXIT_OK
    assert main(["bench", "--count", "2", "--jobs", "2", "--out", str(parallel)]) == EXIT_OK

    def stable(path):  # drop the wall-clock column
        with open(path, newline="") as fh:
            return [row[:-1] for row in csv.reader(fh)]

    assert stable(serial) == stable(parallel)


def test_bench_unknown_suite(tmp_path, capsys):
    code = main(["bench", "--suite", "exhaustive", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    assert "unknown suite" in capsys.readouterr().err


def test_usage_errors_exit_64(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["schedule"]) == EXIT_USAGE
    assert main(["schedule", FIG1, "--variant", "imaginary"]) == EXIT_USAGE
    assert main(["bench"]) == EXIT_USAGE  # --out is required
    capsys.readouterr()


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


def test_bad_values_exit_1_cleanly(tmp_path, capsys):
    assert main(["lowerbound", "margin", "--eps", "-1"]) == EXIT_FAILURE
    assert "error:" in capsys.readouterr().err
    out = tmp_path / "x.json"
    assert main(["lowerbound", "gen", "--n", "0", "--out", str(out)]) == EXIT_FAILURE
    assert "error:" in capsys.readouterr().err


def test_capacity_errors_exit_2(tmp_path, capsys):
    big = tmp_path / "big.json"
    assert main(["lowerbound", "gen", "--n", "6", "--seed", "1", "--out", str(big)]) == EXIT_OK
    assert main(["lowerbound", "solve", str(big)]) == EXIT_CAPACITY
    assert "error:" in capsys.readouterr().err


def test_log_env_is_honored(monkeypatch, capsys):
    monkeypatch.setenv("CD_ROUTER_LOG", "debug")
    assert main(["analyze", FIG1]) == EXIT_OK
    assert "C=2 D=4 ok" in capsys.readouterr().out


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cd_router.cli", "analyze", FIG1],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "C=2 D=4 ok\n"
