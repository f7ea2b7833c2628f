"""Acceptance gate: one test and one printed verdict line per criterion.

Each test prints `criterion N (<label>): PASS|FAIL [...]` directly to the
terminal (bypassing capture) so a full run yields exactly one line per
criterion, then asserts. Suites are deterministic: every instance derives
from a named seed.
"""
import random
import statistics
import sys
import time

import pytest

from cd_router import lowerbound as lb
from cd_router.delay_model import (
    DelayAssignment,
    _contribution,
    crossing_distribution,
    crossing_time,
    expected_load,
)
from cd_router.dissection import build_ladder, dissect_plain, dissect_shifted
from cd_router.fixer import FixerConfig, run_pipeline, schedule_from_assignment
from cd_router.instance import (
    decode,
    generate_random_instance,
    pad,
    shared_path_instance,
    stats,
)
from cd_router.oracle import exhaustive_expectation, optimal_makespan
from cd_router.schedule import Schedule
from cd_router.simulator import CheckRequirements, check, simulate

from conftest import fixture_text, randomize_remaining


def _verdict(capfd, n: int, label: str, failures: list, elapsed: float, extra: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    tail = f" {extra}" if extra else ""
    with capfd.disabled():
        sys.stdout.write(f"criterion {n} ({label}): {status}{tail} [{elapsed:.1f}s]\n")
        sys.stdout.flush()
    assert not failures, failures[:5]


# --- shared suites -----------------------------------------------------------

@pytest.fixture(scope="module")
def small_suite():
    """25 instances whose full delay spaces enumerate within 2^16 outcomes."""
    suite = []
    i = 0
    while len(suite) < 19:
        if len(suite) < 13:
            inst = generate_random_instance(f"accept2/{i}", max_packets=6, max_length=28, n_nodes=12)
        else:
            inst = generate_random_instance(f"accept2/{i}", max_packets=4, max_length=60, n_nodes=30)
        i += 1
        if pad(inst).length >= 4:
            suite.append(inst)
    for j in range(6):
        rng = random.Random(f"accept2/shared{j}")
        suite.append(shared_path_instance(rng.randint(2, 5), rng.randint(40, 120)))

    prepared = []
    for index, inst in enumerate(suite):
        padded = pad(inst)
        ladder = build_ladder(padded.length, 2)
        space = 1
        for lv in ladder.levels:
            space *= lv.wait_budget
        assert space <= 2 ** 16
        tree = dissect_plain(ladder) if index % 2 == 0 else dissect_shifted(ladder)
        prepared.append((index, padded, ladder, tree))
    return prepared


@pytest.fixture(scope="module")
def pipeline_suite():
    """50 instances (k <= 32, D <= 256) run through both variants at delta 4."""
    instances = []
    for i in range(35):
        instances.append(
            generate_random_instance(f"accept4/gen{i}", max_packets=32, max_length=256, n_nodes=200)
        )
    for i in range(10):
        rng = random.Random(f"accept4/shared{i}")
        instances.append(shared_path_instance(rng.randint(2, 32), rng.randint(129, 256)))
    for i in range(5):
        instances.append(lb.generate(2 + i, seed=f"accept4/lb{i}").instance)

    start = time.perf_counter()
    results = {"plain": [], "buffered": []}
    for variant in ("plain", "buffered"):
        for i, inst in enumerate(instances):
            s = stats(inst)
            assert inst.n_packets <= 32 and s.dilation <= 256
            result = run_pipeline(inst, FixerConfig(variant=variant, seed=f"accept4/{i}"))
            results[variant].append(result)
    results["elapsed"] = time.perf_counter() - start
    return results


# --- criteria ----------------------------------------------------------------

def test_criterion_1_reference_instance_fidelity(capfd):
    start = time.perf_counter()
    failures = []
    inst = decode(fixture_text("fig1.json"))
    s = stats(inst)
    if (s.congestion, s.dilation) != (2, 4):
        failures.append(f"C={s.congestion} D={s.dilation}")
    zero = Schedule(waits=[[0] * (len(p) + 1) for p in inst.paths])
    trace = simulate(inst, zero, capacity=1)
    if trace.loads.get(("e4", 2)) != 2:
        failures.append(f"expected load 2 on e4 at slot 2, got {trace.loads.get(('e4', 2))}")
    report = check(trace, CheckRequirements(capacity=1))
    load_result = next(r for r in report.results if r.name == "load")
    if load_result.passed or "e4" not in load_result.detail:
        failures.append(f"load check: {load_result}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(capfd, 1, "reference instance fidelity", failures, elapsed, "C=2 D=4, e4@2 load 2")


def test_criterion_2_initial_expectation_bound(small_suite, capfd):
    start = time.perf_counter()
    failures = []
    worst_max = 0.0
    worst_gap = 0.0
    for index, padded, ladder, tree in small_suite:
        assignment = DelayAssignment(tree, padded.padded.n_packets)
        table = expected_load(padded, assignment)
        exact = exhaustive_expectation(padded, assignment)
        top = max(table.values())
        worst_max = max(worst_max, top)
        if top > 1 + 1e-9:
            failures.append(f"instance {index}: max expectation {top}")
        if set(table) != set(exact.load):
            failures.append(f"instance {index}: cell sets differ")
            continue
        gap = max(abs(table[key] - exact.load[key]) for key in table)
        worst_gap = max(worst_gap, gap)
        if gap > 1e-12:
            failures.append(f"instance {index}: formula vs enumeration gap {gap}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _verdict(
        capfd, 2, "initial expectation bound", failures, elapsed,
        f"25 instances, max E {worst_max:.6f}, worst gap {worst_gap:.1e}",
    )


def test_criterion_3_probability_range_invariants(small_suite, capfd):
    start = time.perf_counter()
    failures = []
    checked = 0
    for index, padded, ladder, tree in small_suite:
        k = padded.padded.n_packets
        n_levels = len(ladder.levels)
        for frontier in range(n_levels + 1):
            assignment = DelayAssignment(tree, k)
            rng = random.Random(f"accept3/{index}/{frontier}")
            for level in range(frontier):
                budget = ladder.levels[level].wait_budget
                assignment.set_level(
                    level,
                    [[rng.randint(1, budget) for _ in range(tree.n_blocks(level))] for _ in range(k)],
                )
            floor = 1.0
            for level in range(frontier, n_levels):
                floor /= ladder.levels[level].wait_budget
            for packet, path in enumerate(padded.padded.paths):
                for pos in range(1, len(path) + 1):
                    law = crossing_distribution(assignment, packet, pos)
                    checked += 1
                    for slot, p in law.items():
                        if p < floor - 1e-12:
                            failures.append(
                                f"instance {index} f{frontier} packet {packet} pos {pos}: "
                                f"mass {p} below {floor}"
                            )
                    if frontier < n_levels:
                        _, table = _contribution(tree, frontier, pos)
                        budget = ladder.levels[frontier].wait_budget
                        injective = table is None or len(set(table)) == budget
                        if injective and max(law.values()) > 1.0 / budget + 1e-12:
                            failures.append(
                                f"instance {index} f{frontier} packet {packet} pos {pos}: "
                                f"peak {max(law.values())} above 1/{budget}"
                            )
    elapsed = time.perf_counter() - start
    _verdict(
        capfd, 3, "probability range invariants", failures, elapsed,
        f"{checked} (packet, edge, slot, frontier) cells, 0 violations expected",
    )


def test_criterion_4_pipeline_feasibility(pipeline_suite, capfd):
    start = time.perf_counter()
    failures = []
    gammas = []
    ratios = []
    for variant in ("plain", "buffered"):
        for result in pipeline_suite[variant]:
            rep = result.report
            trace = simulate(result.padded.base, result.schedule, capacity=1)
            if trace.max_load != 1:
                failures.append(f"{variant} {rep}: load {trace.max_load} at capacity 1")
            if rep.load > rep.counting_cap + 1e-9:
                failures.append(f"{variant}: load {rep.load} > cap {rep.counting_cap}")
            if variant == "plain":
                budget = result.assignment.tree.ladder.total_wait_budget()
                for packet in range(result.padded.padded.n_packets):
                    if result.padded_schedule.total_waiting(packet) != budget:
                        failures.append(f"plain packet {packet}: waiting != {budget}")
                        break
            gammas.append(rep.gamma_final)
            s = result.padded.stats
            ratios.append(rep.makespan / (s.congestion + s.dilation))
    elapsed = time.perf_counter() - start + pipeline_suite["elapsed"]
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.1f}s >= 300s")
    _verdict(
        capfd, 4, "pipeline feasibility", failures, elapsed,
        f"100/100 capacity-1 feasible; gamma median {statistics.median(gammas):.3f} "
        f"max {max(gammas):.3f}; ratio median {statistics.median(ratios):.2f} "
        f"max {max(ratios):.2f} (reported, not asserted)",
    )


def test_criterion_5_buffered_edge_waits(pipeline_suite, capfd):
    start = time.perf_counter()
    failures = []
    worst = 0
    for result in pipeline_suite["buffered"]:
        trace = simulate(result.padded.base, result.prestretch, capacity=result.report.load)
        worst = max(worst, trace.max_edge_wait)
        if trace.max_edge_wait > 1:
            failures.append(
                f"buffered run on {result.padded.base.n_packets} packets: "
                f"edge wait {trace.max_edge_wait}"
            )
    elapsed = time.perf_counter() - start
    _verdict(
        capfd, 5, "buffered waits stay short", failures, elapsed,
        f"50 runs, max per-edge wait {worst} (bound 1)",
    )


def test_criterion_6_small_gadget_optima(capfd):
    start = time.perf_counter()
    failures = []
    for n in (1, 2, 3):
        for seed in range(20):
            gadget = lb.generate(n, seed=f"accept6/{seed}")
            opt = optimal_makespan(gadget.instance)
            if opt is None or opt < 3 * n + 2:
                failures.append(f"n={n} seed={seed}: optimum {opt} < {3 * n + 2}")
    for c in range(1, 5):
        for d in range(1, 7):
            opt = optimal_makespan(shared_path_instance(c, d))
            if opt != c + d - 1:
                failures.append(f"shared path C={c} D={d}: optimum {opt} != {c + d - 1}")
    elapsed = time.perf_counter() - start
    if elapsed >= 180.0:
        failures.append(f"runtime {elapsed:.1f}s >= 180s")
    _verdict(
        capfd, 6, "small gadget optima", failures, elapsed,
        "60 gadgets >= 3n+2; 24 shared paths == C+D-1",
    )


def test_criterion_7_entropy_margin(capfd):
    start = time.perf_counter()
    failures = []
    m = lb.margin(0.000032)
    if abs(m.phi_value - 5.24e-4) > 1e-6:
        failures.append(f"phi {m.phi_value}")
    if abs(m.collision_exponent - 7.27e-4) > 1e-6:
        failures.append(f"collision exponent {m.collision_exponent}")
    if not m.holds:
        failures.append("separation does not hold")
    if abs(lb.phi(1.0) - 2.0) > 1e-12:
        failures.append(f"phi(1) = {lb.phi(1.0)}")
    xs = [i * 0.4 / 99 for i in range(100)]
    ys = [lb.phi(x) for x in xs]
    if not all(ys[i + 1] - 2 * ys[i] + ys[i - 1] < 0 for i in range(1, 99)):
        failures.append("phi not concave on the grid")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _verdict(
        capfd, 7, "entropy margin", failures, elapsed,
        f"phi={m.phi_value:.2e} < {m.collision_exponent:.2e}; phi(1)=2; concave",
    )


def test_criterion_8_formula_matches_execution(capfd):
    start = time.perf_counter()
    failures = []
    pairs = 0
    seed_index = 0
    while pairs < 1000:
        inst = generate_random_instance(
            f"accept8/{seed_index}", max_packets=5, max_length=24, n_nodes=10
        )
        seed_index += 1
        padded = pad(inst)
        if padded.length < 4:
            continue
        ladder = build_ladder(padded.length, 2)
        k = padded.padded.n_packets
        for kind in ("plain", "buffered"):
            tree = dissect_plain(ladder) if kind == "plain" else dissect_shifted(ladder)
            for rep in range(4):
                assignment = DelayAssignment(tree, k)
                randomize_remaining(assignment, random.Random(f"accept8/{seed_index}/{kind}/{rep}"))
                schedule = schedule_from_assignment(padded, assignment)
                trace = simulate(padded.padded, schedule, capacity=k)
                for packet in range(k):
                    slots = trace.crossing_slots[packet]
                    for pos in range(1, padded.length + 1):
                        want = crossing_time(assignment, packet, pos)
                        if slots[pos - 1] != want:
                            failures.append(
                                f"{kind} seed {seed_index} rep {rep} packet {packet} "
                                f"pos {pos}: slot {slots[pos - 1]} != {want}"
                            )
                pairs += 1
        if pairs >= 1000:
            break
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _verdict(
        capfd, 8, "formula matches execution", failures, elapsed,
        f"{pairs} (instance, assignment) pairs, both variants",
    )
