"""Command-line surface: analyze, schedule, simulate, lowerbound, bench.

Exit codes: 0 success, 1 validation or feasibility failure or a file that
cannot be read or written, 2 search or fixing capacity exhausted, 64 usage
error. `CD_ROUTER_LOG` (error, info, debug) controls logging; all
randomness derives from --seed sub-streams.
"""
from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from . import lowerbound as lb_mod
from . import schedule as schedule_mod
from .fixer import FixerConfig, FixerError, run_pipeline
from .instance import (
    Instance,
    InvalidInstanceError,
    decode,
    generate_random_instance,
    measure,
    validate,
)
from .oracle import OracleCapacityError, optimal_makespan
from .simulator import (
    CheckRequirements,
    arrivals_csv_rows,
    check,
    loads_csv_rows,
    simulate,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CAPACITY = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _int_at_least(low: int):
    """argparse type: an integer no smaller than `low` (else exit 64)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _finite_at_least(low: float):
    """argparse type: a finite number no smaller than `low` (else exit 64)."""

    def parse(text: str) -> float:
        value = float(text)
        if not math.isfinite(value) or value < low:
            raise argparse.ArgumentTypeError(f"must be a finite number at least {low}, got {text}")
        return value

    return parse


def _sci(x: float) -> str:
    mantissa, exponent = f"{x:.2e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def _load_instance(path: str) -> Instance:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InvalidInstanceError(f"cannot read {path}: {exc}") from exc
    return decode(text)


def _invalid(violations: tuple[str, ...]) -> bool:
    """Print each violation as `invalid: <reason>` on stderr; True when there is one."""
    for violation in violations:
        print(f"invalid: {violation}", file=sys.stderr)
    return bool(violations)


def _check_writable(*paths: str | None) -> None:
    """Raise, before any work, the OSError that writing a path would; `-` is stdout.

    Opening to append makes a missing file empty and leaves an existing one as it is.
    """
    for path in paths:
        if path is not None and path != "-":
            open(path, "a").close()


def _write_or_print(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


# --- subcommands -------------------------------------------------------------

def cmd_analyze(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    report = validate(instance)
    if not report.ok:
        for violation in report.violations:
            print(f"invalid: {violation}")
        return EXIT_FAILURE
    s = measure(instance)
    print(f"C={s.congestion} D={s.dilation} ok")
    return EXIT_OK


def cmd_schedule(args: argparse.Namespace) -> int:
    _check_writable(args.out, args.report)
    instance = _load_instance(args.instance)
    config = FixerConfig(
        variant=args.variant,
        delta=args.delta,
        strategy=args.strategy,
        finalize_strategy=args.finalize,
        seed=args.seed,
    )
    try:
        result = run_pipeline(instance, config)  # validates once
    except InvalidInstanceError as exc:
        _invalid(exc.violations)
        return EXIT_FAILURE
    _write_or_print(schedule_mod.encode(result.schedule), args.out)
    if args.report is not None:
        Path(args.report).write_text(
            json.dumps(result.report.to_dict(), indent=2) + "\n"
        )
    r, s = result.report, result.padded.stats
    print(
        f"variant={r.variant} C={s.congestion} D={s.dilation} "
        f"load={r.load} gamma={r.gamma_final:.4f} makespan={r.makespan} "
        f"ratio={r.makespan / (s.congestion + s.dilation):.3f}",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_simulate(args: argparse.Namespace) -> int:
    _check_writable(args.trace_csv, args.arrivals_csv)
    instance = _load_instance(args.instance)
    if _invalid(validate(instance).violations):
        return EXIT_FAILURE
    try:
        sched = schedule_mod.decode(Path(args.schedule).read_text())
    except OSError as exc:
        print(f"cannot read {args.schedule}: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    trace = simulate(instance, sched, capacity=args.capacity)
    requirements = CheckRequirements(
        capacity=args.capacity,
        makespan_bound=args.max_makespan,
        edge_wait_bound=args.max_wait,
    )
    report = check(trace, requirements)
    for result in report.results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{result.name}: {status} ({result.detail})")
    if args.trace_csv is not None:
        with open(args.trace_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["edge", "slot", "load"])
            writer.writerows(loads_csv_rows(trace))
    if args.arrivals_csv is not None:
        with open(args.arrivals_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["packet", "arrival"])
            writer.writerows(arrivals_csv_rows(trace))
    verdict = "PASS" if report.ok else "FAIL"
    print(f"load={trace.max_load} makespan={trace.makespan} {verdict}")
    return EXIT_OK if report.ok else EXIT_FAILURE


def cmd_lowerbound_gen(args: argparse.Namespace) -> int:
    _check_writable(args.out)
    lb = lb_mod.generate(args.n, args.seed)
    _write_or_print(lb_mod.serialize(lb), args.out)
    return EXIT_OK


def cmd_lowerbound_solve(args: argparse.Namespace) -> int:
    instance = _load_instance(args.instance)
    opt = optimal_makespan(instance, horizon=args.horizon)  # validates
    s = measure(instance)
    print(f"optimal_makespan={opt} C={s.congestion} D={s.dilation}")
    return EXIT_OK


def cmd_lowerbound_margin(args: argparse.Namespace) -> int:
    m = lb_mod.margin(args.eps)
    if m.holds:
        print(f"phi={_sci(m.phi_value)} < {_sci(m.collision_exponent)} : separation holds")
        return EXIT_OK
    print(f"phi={_sci(m.phi_value)} >= {_sci(m.collision_exponent)} : separation fails")
    return EXIT_FAILURE


def _bench_one(job: tuple[int, str, str, int]) -> tuple[dict | None, str | None]:
    index, seed, variant, delta = job
    instance = generate_random_instance(seed)
    config = FixerConfig(variant=variant, delta=delta, seed=seed)
    start = time.perf_counter()
    try:
        result = run_pipeline(instance, config)
    except FixerError as exc:
        return None, f"job {index} ({variant}): {exc}"
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    r, s = result.report, result.padded.stats
    row = {
        "instance": f"random-{index}",
        "seed": seed,
        "variant": variant,
        "delta": r.delta,
        "relax": f"{r.relax_max:g}",
        "gamma": f"{r.gamma_final:.6g}",
        "load": r.load,
        "makespan": r.makespan,
        "C": s.congestion,
        "D": s.dilation,
        "ratio": f"{r.makespan / (s.congestion + s.dilation):.4f}",
        "ms": f"{elapsed_ms:.1f}",
    }
    return row, None


def cmd_bench(args: argparse.Namespace) -> int:
    _check_writable(args.out)
    jobs = [
        (i, f"{args.seed}/bench{i}", variant, args.delta)
        for i in range(args.count)
        for variant in ("plain", "buffered")
    ]
    rows: list[dict] = []
    errors: list[str] = []
    # the pool starts every worker at once, so it gets no more than the jobs
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        # most jobs take under a millisecond, so each round trip carries a
        # chunk: about four per worker
        chunksize = math.ceil(len(jobs) / (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_bench_one, jobs, chunksize=chunksize))
    else:
        outcomes = [_bench_one(job) for job in jobs]
    for row, error in outcomes:
        if error is not None:
            errors.append(error)
        else:
            rows.append(row)
    fieldnames = [
        "instance", "seed", "variant", "delta", "relax", "gamma",
        "load", "makespan", "C", "D", "ratio", "ms",
    ]
    with open(args.out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    for error in errors:
        print(error, file=sys.stderr)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_CAPACITY if errors else EXIT_OK


# --- wiring ------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="cd-router", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="validate an instance and print C, D")
    p.add_argument("instance")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("schedule", help="run the full scheduling pipeline")
    p.add_argument("instance")
    p.add_argument("--variant", choices=("plain", "buffered"), default="plain")
    p.add_argument("--delta", type=_int_at_least(2), default=4)
    p.add_argument("--seed", default="0")
    p.add_argument("--strategy", choices=("resample", "greedy"), default="resample")
    p.add_argument("--finalize", choices=("ones", "greedy"), default="ones")
    p.add_argument("--out", default=None)
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", help="replay a schedule and check feasibility")
    p.add_argument("instance")
    p.add_argument("schedule")
    p.add_argument("--capacity", type=_int_at_least(1), default=1)
    p.add_argument("--max-makespan", type=_int_at_least(0), default=None)
    p.add_argument("--max-wait", type=_int_at_least(0), default=None)
    p.add_argument("--trace-csv", default=None)
    p.add_argument("--arrivals-csv", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("lowerbound", help="hard-instance experiments")
    lb_sub = p.add_subparsers(dest="lb_command", required=True)

    q = lb_sub.add_parser("gen", help="generate a random-permutation gadget")
    q.add_argument("--n", type=_int_at_least(1), required=True)
    q.add_argument("--seed", default="0")
    q.add_argument("--out", default=None)
    q.set_defaults(func=cmd_lowerbound_gen)

    q = lb_sub.add_parser("solve", help="exact optimal makespan (small n)")
    q.add_argument("instance")
    q.add_argument("--horizon", type=_int_at_least(0), default=None)
    q.set_defaults(func=cmd_lowerbound_solve)

    q = lb_sub.add_parser("margin", help="compare counting vs collision exponents")
    q.add_argument("--eps", type=_finite_at_least(0), required=True)
    q.set_defaults(func=cmd_lowerbound_margin)

    p = sub.add_parser("bench", help="run pipeline benchmarks, emit CSV")
    p.add_argument("--count", type=_int_at_least(1), default=10)
    p.add_argument("--delta", type=_int_at_least(2), default=4)
    p.add_argument("--seed", default="0")
    p.add_argument("--jobs", type=_int_at_least(1), default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_bench)

    return parser


def _configure_logging() -> None:
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("CD_ROUTER_LOG", "error").lower()
    logging.basicConfig(level=levels.get(name, logging.ERROR), format="%(message)s")


def main(argv: list[str] | None = None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidInstanceError, schedule_mod.ScheduleError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (FixerError, OracleCapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
