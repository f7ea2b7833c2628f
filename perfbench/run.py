"""cd-router benchmark: one workload per run, a closed loop with one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/`. With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics, with `--trace 1` one with the per-layer
metrics. The lines before it give every metric in words, the ops that hit
the time cap, a sha256 of each op's output and the environment.
`--toy` shrinks every input, for the benchmark's self-test.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter, thread_time

sys.dont_write_bytecode = True  # the benchmark leaves no files behind
from hostspeed import HostSpeed  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# A pathological op counts as failed once it runs this long (wall time); at
# the parent commit the slowest op of any workload takes about 3.5 s.
OP_CAP_S = 30.0
# the most of a run's wall time that set-up samples taken between ops may use
SETUP_SHARE = 0.1
# what the workloads import from the program, timed as part of set-up
PROGRAM_MODULES = ("cd_router", "cd_router.fixer", "cd_router.instance",
                   "cd_router.schedule", "cd_router.simulator")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "ratio_mean": "ratio",
    "peak_rss_mib": "MiB",
}
SELF_TIMES = (
    "fixer.fix_level",
    "fixer.schedule_from_assignment",
    "fixer.finalize",
    "fixer.realized_loads",
    "fixer.stretch",
    "fixer.unpad_schedule",
    "instance.decode",
    "instance.stats",
    "instance.pad",
    "dissection.ladder",
    "simulator.simulate",
    "simulator.check",
    "simulator.csv_rows",
    "schedule.decode",
    "schedule.encode",
)
COUNTS = (
    "fixer.items",
    "fixer.resamples",
    "fixer.restarts",
    "fixer.fix_level.failed",
    "delay_model.crossing_time.calls",
    "fixer.levels_fixed",
    "instance.pad.dummy_edges",
    "dissection.depth",
    "simulator.simulate.calls",
    "simulator.packet_slots",
)
PER_LAYER = {
    **{f"{layer}.self_ms": "ms/op" for layer in SELF_TIMES},
    "pipeline.unattributed_ms": "ms/op",
    **{name: "count/op" for name in COUNTS},
    "fixer.fix_level.ok_ratio": "ratio",
    "fixer.load": "count",
    "fixer.load_over_cap": "ratio",
    "trace.op_ms": "ms",
    "trace.attributed_frac": "frac",
    "trace.overhead_frac": "frac",
}


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


class Runner:
    """Runs ops from a pool in order, round after round, and tallies them."""

    def __init__(self, pool, workloads_mod, speed: HostSpeed | None = None):
        signal.signal(signal.SIGALRM, _on_alarm)
        self.pool = pool
        self.w = workloads_mod
        self.speed = speed  # without it, ops are timed in plain CPU time and not rescaled
        self.clock = speed.clock if speed else thread_time
        self.op_s: list[float] = []  # CPU time of each op that completed
        self.op_marks: list[tuple[int, int]] = []  # and its host-speed marks
        self.wall_s = 0.0  # and their wall time, summed
        self.attempted = self.failed = self.mismatches = self.cap_hits = 0
        self.ratios: list[float] = []  # first round only, so speed cannot change it
        self.shas: list[tuple[str, str]] = []
        self.problems: list[str] = []

    def op(self, index: int) -> float:
        """Run one op and check it; its CPU time, or 0.0 if it did not finish."""
        inp = self.pool[index % len(self.pool)]
        round_ = index // len(self.pool)
        self.attempted += 1
        mark = self.speed.mark() if self.speed else 0
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        start, wall_start = self.clock(), perf_counter()
        try:
            out = inp.run(round_)
        except OpTimeout:
            self.failed += 1
            self.cap_hits += 1
            return 0.0
        except self.w.fixer.FixerError as exc:
            self.failed += 1
            self.problems.append(f"{inp.label}: FixerError: {exc}")
            return 0.0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = self.clock() - start
        self.wall_s += perf_counter() - wall_start
        self.op_s.append(elapsed)
        self.op_marks.append((mark, self.speed.mark() if self.speed else 0))
        try:
            ratio, sha = inp.check(out)
        except self.w.Mismatch as exc:
            self.failed += 1
            self.mismatches += 1
            self.problems.append(str(exc))
            return elapsed
        if round_ == 0:
            self.shas.append((inp.label, sha))
            if ratio is not None:
                self.ratios.append(ratio)
        return elapsed

    def rescaled_s(self) -> list[float]:
        """Each completed op's CPU time at the reference speed (see hostspeed.py)."""
        return [self.speed.rescale(t, *marks) for t, marks in zip(self.op_s, self.op_marks)]

    def loop(self, seconds: float, stride: int, min_ops: int, setup: "SetUp") -> None:
        """Run ops until `seconds` have passed, `min_ops` ran and a stride ends.

        Between strides the set-up is sampled again (see `SetUp`).
        """
        start = perf_counter()
        index = 0
        while True:
            self.op(index)
            index += 1
            if index % stride:
                continue
            elapsed = perf_counter() - start
            if index >= min_ops and elapsed >= seconds:
                return
            setup.resample(elapsed)

    def traced_loop(self, tracer, seconds: float, stride: int) -> tuple[int, list[bool]]:
        """Run each op untraced and traced, in alternating order so drift cancels.

        Returns the number of traced ops and, for each completed op in
        `op_s`, whether it was traced.
        """
        start = perf_counter()
        index = 0
        traced_flags: list[bool] = []
        while True:
            for traced in (False, True) if index % 2 else (True, False):
                done = len(self.op_s)
                if traced:
                    with tracer.installed():
                        self.op(index)
                else:
                    self.op(index)
                traced_flags += [traced] * (len(self.op_s) - done)
            index += 1
            if index % stride == 0 and perf_counter() - start >= seconds:
                return index, traced_flags


def _load_program():
    """Import the program from this checkout's src/, or exit without a result."""
    if not (SRC / "cd_router" / "__init__.py").is_file():
        sys.exit(f"error: no program source at {SRC / 'cd_router'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads
    origin = Path(workloads.fixer.__file__).resolve()
    if SRC not in origin.parents:
        sys.exit(f"error: imported cd_router from {origin}, not from {SRC}")
    return workloads, tracing


def _environment() -> None:
    lines = sum(p.read_text().count("\n") for p in (SRC / "cd_router").glob("*.py"))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"# python {sys.version.split()[0]}  nproc {nproc}  src/cd_router lines {lines}")


def _program_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "cd_router" or name.startswith("cd_router.")}


def _fresh_import() -> None:
    """Import the program anew from source, then put back the modules in use."""
    loaded = _program_modules()
    for name in loaded:
        del sys.modules[name]
    try:
        for name in PROGRAM_MODULES:
            importlib.import_module(name)
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(loaded)


class SetUp:
    """Import, build the inputs and warm up, timed in CPU time.

    The host's CPU speed wanders from one second to the next, so set-ups
    taken at one moment share its speed then. `resample` repeats the set-up
    between ops all through the run, within SETUP_SHARE of the run's wall
    time, and `setup_s` is the median of every set-up, each rescaled to the
    reference speed like an op (see hostspeed.py).
    """

    def __init__(self, build, seed: int, toy: bool, w, speed: HostSpeed):
        self.build, self.seed, self.toy, self.w = build, seed, toy, w
        self.speed = speed
        self.cpu_s: list[float] = []  # CPU time of each set-up
        self.marks: list[tuple[int, int]] = []  # and its host-speed marks
        self.resampled_s = 0.0

    def run(self):
        """One set-up; returns the input pool and its stride."""
        mark = self.speed.mark()
        start = self.speed.clock()
        _fresh_import()
        pool, warmup, stride = self.build(self.seed, self.toy)
        warm = Runner(warmup, self.w)
        for i in range(len(warmup)):
            warm.op(i)
        self.cpu_s.append(self.speed.clock() - start)
        self.marks.append((mark, self.speed.mark()))
        if warm.failed:
            sys.exit(f"error: warm-up failed: {warm.problems}")
        return pool, stride

    def resample(self, elapsed_s: float) -> None:
        """Set up again until the set-ups take their share of `elapsed_s` wall time."""
        while self.resampled_s < SETUP_SHARE * elapsed_s:
            start = perf_counter()
            self.run()
            gc.collect()  # the discarded modules and pool, outside any op's time
            self.resampled_s += perf_counter() - start

    def median_s(self) -> float:
        """The median set-up time at the reference speed."""
        return statistics.median(
            self.speed.rescale(t, *marks) for t, marks in zip(self.cpu_s, self.marks)
        )


def _end_to_end(runner: Runner, setup: SetUp) -> dict[str, float]:
    ok_s = runner.rescaled_s()
    cpu_s = runner.op_s
    ok = len(ok_s) - runner.mismatches
    metrics = {
        "setup_s": setup.median_s(),
        "ops_per_s": ok / sum(ok_s) if ok_s else 0.0,
        "op_ms_p50": statistics.median(ok_s) * 1000 if ok_s else 0.0,
        "ratio_mean": statistics.fmean(runner.ratios) if runner.ratios else 0.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {
        "fail_frac": (runner.failed / runner.attempted, "frac"),
        "ratio_max": (max(runner.ratios), "ratio") if runner.ratios else ("n/a", ""),
        # the highest percentile with ten samples beyond it
        "op_ms_p90": (statistics.quantiles(ok_s, n=10)[-1] * 1000, "ms")
        if len(ok_s) >= 100 else ("n/a (fewer than 100 ops)", ""),
        # the same figures before rescaling to the reference speed, and over
        # wall time, which also counts the time the host ran other work on
        # this process's CPU
        "setup_cpu_s": (statistics.median(setup.cpu_s), "s"),
        "ops_per_cpu_s": (ok / sum(cpu_s), "1/s") if cpu_s else ("n/a", ""),
        "op_cpu_ms_p50": (statistics.median(cpu_s) * 1000, "ms") if cpu_s else ("n/a", ""),
        "ops_per_wall_s": (ok / runner.wall_s, "1/s") if runner.wall_s else ("n/a", ""),
        "reference_loop_ms_p50": (runner.speed.median_ms(), "ms"),
    }
    for name, unit in END_TO_END.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    for name, (value, unit) in info.items():
        print(f"{name}: {value:.6g} {unit}" if unit else f"{name}: {value}")
    print(f"ops: {runner.attempted} attempted, {len(ok_s)} timed, "
          f"{len(runner.ratios)} in the quality set; {len(setup.cpu_s)} set-ups timed")
    return metrics


def _per_layer(tracer, runner: Runner, n_ops: int, traced: list[bool]) -> dict[str, float]:
    self_s, counts = tracer.self_s, tracer.counts
    rescaled = runner.rescaled_s()
    traced_cpu_s = sum(t for t, on in zip(runner.op_s, traced) if on)
    traced_s = sum(t for t, on in zip(rescaled, traced) if on)
    untraced_s = sum(t for t, on in zip(rescaled, traced) if not on)
    # self times are CPU times; bring them to the reference speed with the traced ops' mean factor
    scale = 1000 / n_ops * traced_s / traced_cpu_s
    metrics = {f"{layer}.self_ms": self_s[layer] * scale for layer in SELF_TIMES}
    metrics["pipeline.unattributed_ms"] = self_s["pipeline"] * scale
    metrics.update({name: counts[name] / n_ops for name in COUNTS})
    calls = counts["fixer.fix_level.calls"]
    metrics["fixer.fix_level.ok_ratio"] = (
        (calls - counts["fixer.fix_level.failed"]) / calls if calls else 1.0
    )
    pipelines = counts["pipeline.ok"]
    metrics["fixer.load"] = counts["fixer.load"] / pipelines if pipelines else 0.0
    metrics["fixer.load_over_cap"] = counts["fixer.load_over_cap"] / pipelines if pipelines else 0.0
    metrics["trace.op_ms"] = traced_s * 1000 / n_ops
    metrics["trace.attributed_frac"] = sum(self_s.values()) / traced_cpu_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1
    for name, unit in PER_LAYER.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    w, tracing = _load_program()
    if args.workload not in w.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(w.WORKLOADS)}")
    _environment()
    speed = HostSpeed()
    setup = SetUp(w.WORKLOADS[args.workload], args.seed, args.toy, w, speed)
    pool, stride = setup.run()
    # the input pool lives for the whole run; keep the program's collections off it
    gc.collect()
    gc.freeze()

    runner = Runner(pool, w, speed)
    if args.trace:
        tracer = tracing.Tracer(speed.clock)
        n_ops, traced = runner.traced_loop(tracer, args.seconds, stride)
        speed.stop()
        metrics = _per_layer(tracer, runner, n_ops, traced)
        units = PER_LAYER
    else:
        runner.loop(args.seconds, stride, len(pool), setup)
        speed.stop()
        metrics = _end_to_end(runner, setup)
        units = END_TO_END
        for label, sha in runner.shas:
            print(f"# sha256 {sha} {label}")
        digest = hashlib.sha256("".join(sha for _, sha in runner.shas).encode()).hexdigest()
        print(f"# sha256 {digest} all {len(runner.shas)} outputs of the first round")

    print(f"cap_hits: {runner.cap_hits} ops ran past the {OP_CAP_S:g} s cap")
    for problem in runner.problems:
        print(f"# failed: {problem}")
    print(json.dumps({
        "correct": runner.mismatches == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 1 if runner.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
