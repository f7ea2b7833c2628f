import math
import random

import pytest

from cd_router import delay_model
from cd_router.delay_model import (
    AssignmentError,
    DelayAssignment,
    _contribution,
    crossing_distribution,
    crossing_time,
    duty_count_table,
    expected_load,
    residual_law,
)
from cd_router.dissection import Block, build_ladder, dissect_plain, dissect_shifted
from cd_router.fixer import schedule_from_assignment
from cd_router.instance import pad, shared_path_instance
from cd_router.simulator import simulate

from conftest import randomize_remaining


def plain_16_2():
    return dissect_plain(build_ladder(16, 2))  # levels [(16,16),(4,2)]


def full_assignment(tree, n_packets, values_by_level):
    a = DelayAssignment(tree, n_packets)
    for level, per_packet in enumerate(values_by_level):
        a.set_level(level, per_packet)
    return a


def test_crossing_time_plain_frozen_example():
    tree = plain_16_2()
    # j=5 sits in level-1 block [5..8] (index 1)
    a = full_assignment(tree, 1, [[[1]], [[2, 1, 2, 2]]])
    assert crossing_time(a, 0, 5) == 9


def test_crossing_time_minimal_and_maximal():
    tree = plain_16_2()
    ones = full_assignment(tree, 1, [[[1]], [[1, 1, 1, 1]]])
    assert crossing_time(ones, 0, 1) == 1 + 2  # one unit per level
    maxed = full_assignment(tree, 1, [[[16]], [[2, 2, 2, 2]]])
    assert crossing_time(maxed, 0, 16) == 16 + (0 * 16 + 16) + (3 * 2 + 2)


def test_crossing_time_requires_full_assignment():
    tree = plain_16_2()
    a = DelayAssignment(tree, 1)
    with pytest.raises(AssignmentError, match="incomplete"):
        crossing_time(a, 0, 1)


def test_set_level_rejects_a_bad_matrix():
    tree = plain_16_2()  # level 0 has one block of budget 16, level 1 four of budget 2
    a = DelayAssignment(tree, 2)
    with pytest.raises(AssignmentError, match=r"^level 1 set out of order \(frontier 0\)$"):
        a.set_level(1, [[1] * 4, [1] * 4])
    with pytest.raises(AssignmentError, match="^value matrix has wrong packet count$"):
        a.set_level(0, [[1]])
    with pytest.raises(AssignmentError, match="^packet 1: wrong block count at level 0$"):
        a.set_level(0, [[1], [1, 1]])
    for value in (0, 17):
        with pytest.raises(AssignmentError, match=rf"^value {value} outside \[1, 16\] at level 0$"):
            a.set_level(0, [[1], [value]])
    assert a.frontier == 0
    a.set_level(0, [[1], [16]])
    assert (a.frontier, a.values[1][0]) == (1, [16])


def test_a_rejected_matrix_writes_no_row():
    # packet 0's row is valid; packet 1's value is out of range
    a = DelayAssignment(plain_16_2(), 2)
    with pytest.raises(AssignmentError, match=r"^value 17 outside \[1, 16\] at level 0$"):
        a.set_level(0, [[3], [17]])
    assert a.value(0, 0, 0) is None
    assert a.frontier == 0


def test_crossing_times_strictly_increase_along_path():
    tree = plain_16_2()
    rng = random.Random(5)
    for _ in range(20):
        a = DelayAssignment(tree, 1)
        randomize_remaining(a, rng)
        slots = [crossing_time(a, 0, pos) for pos in range(1, 17)]
        assert all(b > c for b, c in zip(slots[1:], slots))


@pytest.mark.parametrize("kind", ["plain", "buffered"])
def test_fixed_slots_at_given_positions_are_the_full_lists_entries(kind):
    # what a level's workspace reads at its items: the one slot rule at
    # some positions, in their order, with or without a base of its own
    tree = (dissect_plain if kind == "plain" else dissect_shifted)(build_ladder(64, 2))
    rng = random.Random(f"positions/{kind}")
    n_packets, length = 3, tree.length
    assignment = DelayAssignment(tree, n_packets)
    base = [p + rng.randint(0, 9) for p in range(length)]
    choices = [[], [5], sorted(rng.sample(range(length), 10)), rng.choices(range(length), k=20), list(range(length))]
    for levels in range(assignment.n_levels + 1):
        for packet in range(n_packets):
            full, shifted = assignment.fixed_slots(packet, levels), assignment.fixed_slots(packet, levels, base)
            for positions in choices:
                assert assignment.fixed_slots(packet, levels, None, positions) == [full[p] for p in positions]
                assert assignment.fixed_slots(packet, levels, base, positions) == [shifted[p] for p in positions]
        if levels < assignment.n_levels:
            budget = tree.ladder.levels[levels].wait_budget
            assignment.set_level(levels, [
                [rng.randint(1, budget) for _ in range(tree.n_blocks(levels))] for _ in range(n_packets)
            ])
    assert assignment.fully_fixed


def test_duty_count_table_frozen_example():
    # duty at 1,3,5,7 with budget 2: x=1 waits at 1 and at 7
    block = Block(1, 0, 1, 8, assigned=(1, 3, 5, 7))
    assert duty_count_table(block, 2, 5) == (1, 2)  # x=1 -> one wait before 5
    assert duty_count_table(block, 2, 7) == (2, 2)
    assert duty_count_table(block, 2, 1) == (1, 1)
    # x=budget puts every wait at the leading duty edges
    assert duty_count_table(block, 2, 5)[1] == 2


def test_buffered_crossing_matches_wait_walk():
    # independent re-derivation: walk the duty rule edge by edge
    tree = dissect_shifted(build_ladder(16, 2))
    rng = random.Random(11)
    for _ in range(40):
        a = DelayAssignment(tree, 1)
        randomize_remaining(a, rng)
        node_waits = [0] * 17  # wait before crossing position p stored at p-1
        node_waits[0] += a.value(0, 0, 0)
        for b in tree.blocks(1):
            x = a.value(0, 1, b.index)
            duty = list(b.assigned[:x]) + list(b.assigned[len(b.assigned) - (2 - x):])
            for p in duty:
                if p < 1:
                    node_waits[0] += 1
                elif p <= 16:
                    node_waits[p - 1] += 1
        slot = 0
        for pos in range(1, 17):
            slot += node_waits[pos - 1] + 1
            assert crossing_time(a, 0, pos) == slot


@pytest.mark.parametrize("kind", ["plain", "buffered"])
def test_residual_law_counts_every_draw_combination(kind):
    for length, delta in ((16, 2), (64, 2), (256, 2), (256, 4)):
        ladder = build_ladder(length, delta)
        tree = dissect_plain(ladder) if kind == "plain" else dissect_shifted(ladder)
        for from_level in range(len(ladder.levels) + 1):
            combos = math.prod(lv.wait_budget for lv in ladder.levels[from_level:])
            for pos in range(1, length + 1):
                law = residual_law(tree, from_level, pos)
                delays = [d for d, _ in law]
                assert delays == sorted(set(delays))
                assert all(isinstance(c, int) and c > 0 for _, c in law)
                assert sum(c for _, c in law) == combos


def test_crossing_distribution_frozen_value():
    tree = plain_16_2()
    a = DelayAssignment(tree, 1)
    law = crossing_distribution(a, 0, 1)
    assert law[3] == pytest.approx(1 / 32, abs=1e-15)
    assert min(law) == 3 and max(law) == 19
    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)


def test_crossing_distribution_point_mass_when_fixed():
    tree = plain_16_2()
    a = full_assignment(tree, 1, [[[7]], [[1, 2, 1, 2]]])
    for pos in (1, 5, 16):
        law = crossing_distribution(a, 0, pos)
        assert law == {crossing_time(a, 0, pos): 1.0}


def test_crossing_distribution_mass_one_many_triples():
    rng = random.Random(3)
    for length, delta in ((16, 2), (64, 2), (64, 4)):
        for kind in ("plain", "buffered"):
            ladder = build_ladder(length, delta)
            tree = dissect_plain(ladder) if kind == "plain" else dissect_shifted(ladder)
            for frontier in range(len(ladder.levels) + 1):
                a = DelayAssignment(tree, 2)
                for level in range(frontier):
                    budget = ladder.levels[level].wait_budget
                    a.set_level(level, [
                        [rng.randint(1, budget) for _ in range(tree.n_blocks(level))]
                        for _ in range(2)
                    ])
                for pos in (1, length // 2, length):
                    law = crossing_distribution(a, 1, pos)
                    assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)


def test_distribution_matches_monte_carlo():
    tree = plain_16_2()
    base = DelayAssignment(tree, 1)
    law = crossing_distribution(base, 0, 9)
    rng = random.Random(99)
    n = 20000
    hits: dict[int, int] = {}
    for _ in range(n):
        a = DelayAssignment(tree, 1)
        randomize_remaining(a, rng)
        t = crossing_time(a, 0, 9)
        hits[t] = hits.get(t, 0) + 1
    for slot, p in law.items():
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits.get(slot, 0) / n - p) <= 3 * sigma + 1e-9


def test_expected_load_initial_bound_and_single_packet_mass():
    padded = pad(shared_path_instance(4, 14))  # D' = 16
    for make in (dissect_plain, dissect_shifted):
        tree = make(build_ladder(16, 2))
        a = DelayAssignment(tree, 4)
        table = expected_load(padded, a)
        assert max(table.values()) <= 1 + 1e-9
    single = pad(shared_path_instance(1, 16))
    tree = plain_16_2()
    a = DelayAssignment(tree, 1)
    table = expected_load(single, a)
    per_edge: dict[str, float] = {}
    for (eid, _), v in table.items():
        per_edge[eid] = per_edge.get(eid, 0.0) + v
    assert all(abs(v - 1.0) <= 1e-12 for v in per_edge.values())


@pytest.mark.parametrize("kind", ["plain", "buffered"])
def test_expected_load_computes_each_positions_law_once(monkeypatch, kind):
    # D' = 64 positions crossed by 8 packets: one open law per position,
    # not one per crossing, and the sum of the crossings' laws all the same
    padded = pad(shared_path_instance(8, 64))
    tree = (dissect_plain if kind == "plain" else dissect_shifted)(build_ladder(padded.length, 2))
    assignment = DelayAssignment(tree, padded.padded.n_packets)
    rng = random.Random(f"expected-load/{kind}")
    for frontier in range(assignment.n_levels + 1):
        reference: dict[tuple[str, int], float] = {}
        for packet, path in enumerate(padded.padded.paths):
            for pos, edge_id in enumerate(path, start=1):
                for slot, p in crossing_distribution(assignment, packet, pos).items():
                    reference[edge_id, slot] = reference.get((edge_id, slot), 0.0) + p
        calls = []
        monkeypatch.setattr(delay_model, "residual_law", lambda *args: calls.append(args) or residual_law(*args))
        assert expected_load(padded, assignment) == reference
        monkeypatch.undo()
        assert len(calls) == padded.length == 64
        if not assignment.fully_fixed:
            budget = tree.ladder.levels[frontier].wait_budget
            assignment.set_level(frontier, [
                [rng.randint(1, budget) for _ in range(tree.n_blocks(frontier))]
                for _ in range(assignment.n_packets)
            ])


def prob_range_frontier_sweep(kind):
    ladder = build_ladder(64, 2)  # levels [(64,64),(8,2)]
    tree = dissect_plain(ladder) if kind == "plain" else dissect_shifted(ladder)
    rng = random.Random(17)
    budgets = [lv.wait_budget for lv in ladder.levels]
    for frontier in range(len(budgets)):
        a = DelayAssignment(tree, 1)
        for level in range(frontier):
            a.set_level(level, [[
                rng.randint(1, budgets[level]) for _ in range(tree.n_blocks(level))
            ]])
        bound_a = 1.0 / budgets[frontier]
        open_product = math.prod(budgets[frontier:])
        for pos in range(1, 65):
            law = crossing_distribution(a, 0, pos)
            for p in law.values():
                assert p >= 1.0 / open_product - 1e-15  # nonzero mass floor
            if kind == "plain":
                assert max(law.values()) <= bound_a + 1e-15
            else:
                table = None
                if frontier >= 1:
                    _, table = _contribution(tree, frontier, pos)
                if table is None or len(set(table)) == len(table):
                    # first open level shifts this position injectively
                    assert max(law.values()) <= bound_a + 1e-15


def test_probability_range_plain():
    prob_range_frontier_sweep("plain")


def test_probability_range_buffered_clean_region():
    prob_range_frontier_sweep("buffered")


def test_formula_equals_simulation_small():
    for kind in ("plain", "buffered"):
        padded = pad(shared_path_instance(2, 16))
        ladder = build_ladder(16, 2)
        tree = dissect_plain(ladder) if kind == "plain" else dissect_shifted(ladder)
        rng = random.Random(kind)
        for _ in range(10):
            a = DelayAssignment(tree, 2)
            randomize_remaining(a, rng)
            sched = schedule_from_assignment(padded, a)
            trace = simulate(padded.padded, sched, capacity=2)
            for i in range(2):
                expect = [crossing_time(a, i, pos) for pos in range(1, 17)]
                assert trace.crossing_slots[i] == expect
