"""Self-test of the benchmark; run from the root of a checkout:

    python3 perfbench/selftest.py

1. Every workload of BENCHMARK.json runs at toy size, untraced and traced,
   and prints every metric named there, with its unit, on its last line and
   in words before it, with a correct result and no failed op.
2. A pipeline op whose schedule has one injected collision, and a replay op
   whose expected verdicts are wrong, are each counted as failed and wrong.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))
import run  # noqa: E402


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise AssertionError(what)


def check_workload_output(spec: dict) -> None:
    info_lines = ("fail_frac: ", "ratio_max: ", "op_ms_p90: ", "setup_cpu_s: ", "ops_per_cpu_s: ",
                  "op_cpu_ms_p50: ", "ops_per_wall_s: ", "reference_loop_ms_p50: ")
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "3",
                 "--seconds", "0.5", "--trace", str(trace), "--toy"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            where = f"{name} --trace {trace}"
            expect(proc.returncode == 0, f"{where}: exit {proc.returncode}: {proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys")
            expect(result["correct"] is True, f"{where}: not correct")
            expect(result["attempted"] >= 1 and result["failed"] == 0, f"{where}: failed ops")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {metric: v["unit"] for metric, v in result["metrics"].items()}
            expect(got == want, f"{where}: metrics {sorted(got)} != {sorted(want)}")
            for metric, unit in want.items():
                value = result["metrics"][metric]["value"]
                expect(isinstance(value, (int, float)), f"{where}: {metric} is not a number")
                expect(any(line.startswith(f"{metric}: ") and line.endswith(f" {unit}")
                           for line in lines), f"{where}: no line for {metric} in {unit}")
            expect(any(line.startswith("cap_hits: ") for line in lines), f"{where}: cap_hits")
            if trace == 0:
                for prefix in info_lines:
                    expect(any(line.startswith(prefix) for line in lines), f"{where}: {prefix}")
        print(f"selftest: {name} prints every metric")


def _one_collision(schedule_mod, encode):
    """An encoder that moves one packet onto another's first crossing, and only that one."""

    def colliding_encode(sched):
        waits = [list(row) for row in sched.waits]
        late, early = sorted(range(2), key=lambda i: waits[i][0], reverse=True)
        shift = waits[late][0] - waits[early][0]
        waits[late][0] -= shift
        waits[late][1] += shift  # later crossings stay where they were
        return encode(schedule_mod.Schedule(waits=waits))

    return colliding_encode


def check_injected_failures(w) -> None:
    pool, _, _ = w.deep_shared(3, True)
    encode = w.schedule.encode
    w.schedule.encode = _one_collision(w.schedule, encode)
    try:
        runner = run.Runner(pool, w)
        for index in range(len(pool)):
            runner.op(index)
    finally:
        w.schedule.encode = encode
    expect(runner.mismatches == runner.failed == runner.attempted == len(pool),
           f"collision not counted: {runner.failed} of {runner.attempted} failed")
    expect(all("two packets cross edge e0 at slot" in p for p in runner.problems),
           f"collision not named: {runner.problems}")
    print("selftest: a schedule with one injected collision is counted as failed")

    pool, _, _ = w.replay(3, True)
    colliding = next(inp for inp in pool if inp.label == "colliding")
    colliding.verdicts = {"load": True, "makespan": True, "edge_wait": True}
    colliding.load_detail = None
    runner = run.Runner([colliding], w)
    runner.op(0)
    expect(runner.mismatches == runner.failed == 1, "a wrong replay verdict was not counted")
    print("selftest: a replay whose verdict differs from the expected one is counted as failed")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [wl["name"] for wl in spec["workloads"]]
    w, _ = run._load_program()
    expect(sorted(names) == sorted(w.WORKLOADS), f"workloads {names} != {sorted(w.WORKLOADS)}")
    check_injected_failures(w)
    check_workload_output(spec)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
