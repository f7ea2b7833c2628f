"""Reference-oracle tests: exact optima and brute-force expectations.

Expected values here were derived by hand (shared paths, the n=2 gadget,
single-level uniform draws) and frozen before the implementations under
test were trusted.
"""
import json
import random

import pytest

from cd_router import instance as instance_mod
from cd_router import oracle as oracle_mod
from cd_router.delay_model import DelayAssignment, crossing_distribution, crossing_time, expected_load
from cd_router.dissection import build_ladder, dissect_plain, dissect_shifted
from cd_router.fixer import _CrossingIndex, _LevelWorkspace
from cd_router.instance import (
    Edge,
    Instance,
    InvalidInstanceError,
    decode,
    generate_random_instance,
    pad,
    shared_path_instance,
)
from cd_router.oracle import OracleCapacityError, exhaustive_expectation, optimal_makespan

from conftest import fixture_text


# --- optimal makespan --------------------------------------------------------

def test_single_packet_needs_exactly_its_path_length():
    for m in range(1, 7):
        inst = shared_path_instance(1, m)
        assert optimal_makespan(inst) == m


def test_shared_path_optimum_is_congestion_plus_dilation_minus_one():
    # k packets on one path of length m: the edge sequence is a pipeline,
    # so the k-th packet cannot finish before m + k - 1.
    assert optimal_makespan(shared_path_instance(2, 3)) == 4
    for c in range(1, 5):
        for d in range(1, 7):
            inst = shared_path_instance(c, d)
            assert optimal_makespan(inst) == c + d - 1, (c, d)


def test_disjoint_paths_run_in_parallel():
    edges = [
        Edge(id="e0", tail="a0", head="a1"),
        Edge(id="e1", tail="a1", head="a2"),
        Edge(id="e2", tail="a2", head="a3"),
        Edge(id="e3", tail="b0", head="b1"),
        Edge(id="e4", tail="b1", head="b2"),
        Edge(id="e5", tail="b2", head="b3"),
    ]
    nodes = {e.tail for e in edges} | {e.head for e in edges}
    inst = Instance(nodes=nodes, edges=edges, paths=[["e0", "e1", "e2"], ["e3", "e4", "e5"]])
    assert optimal_makespan(inst) == 3


def test_fig1_optimum_is_dilation(fig1):
    # one source wait by the third packet clears the only collision
    assert optimal_makespan(fig1) == 4


def test_gadget_fixture_optimum():
    inst = decode(fixture_text("lb-n2.json"))
    assert optimal_makespan(inst) == 8


def test_optimum_is_invariant_under_relabeling():
    inst = shared_path_instance(3, 3)
    renamed = Instance(
        nodes={f"n_{v}" for v in inst.nodes},
        edges=[Edge(id=f"x{e.id}", tail=f"n_{e.tail}", head=f"n_{e.head}") for e in inst.edges],
        paths=[[f"x{eid}" for eid in path] for path in inst.paths],
    )
    assert optimal_makespan(renamed) == optimal_makespan(inst) == 5


def test_unreachable_horizon_returns_none():
    inst = shared_path_instance(2, 3)
    assert optimal_makespan(inst, horizon=3) is None
    assert optimal_makespan(inst, horizon=4) == 4


def test_oracle_refuses_oversized_instances():
    with pytest.raises(OracleCapacityError):
        optimal_makespan(shared_path_instance(8, 32))


def test_oracle_rejects_invalid_instances():
    edges = [Edge(id="e1", tail="a", head="b"), Edge(id="e2", tail="b", head="a")]
    bad = Instance(nodes={"a", "b"}, edges=edges, paths=[["e1", "e2", "e1"]])
    with pytest.raises(InvalidInstanceError):
        optimal_makespan(bad)


def test_oracle_validates_once(monkeypatch):
    calls = []
    validate = instance_mod.validate

    def counted(inst):
        calls.append(inst)
        return validate(inst)

    monkeypatch.setattr(instance_mod, "validate", counted)
    monkeypatch.setattr(oracle_mod, "validate", counted, raising=False)  # a name of its own, if any
    assert optimal_makespan(shared_path_instance(2, 3)) == 4
    assert len(calls) == 1


# --- exhaustive expectation --------------------------------------------------

def test_single_level_draws_spread_uniformly():
    # one packet, path length 4, single level (D=4, W=4): the draw x is
    # spent entirely at the source, so edge j is crossed at slot j + x.
    padded = pad(shared_path_instance(1, 4))
    tree = dissect_plain(build_ladder(padded.length, 2))
    table = exhaustive_expectation(padded, DelayAssignment(tree, 1))
    path = padded.padded.paths[0]
    for j, eid in enumerate(path, start=1):
        for x in range(1, 5):
            assert table.load[(eid, j + x)] == pytest.approx(0.25)
        law = table.crossing[(0, j)]
        assert law == pytest.approx({j + x: 0.25 for x in range(1, 5)})


@pytest.mark.parametrize("kind", ["plain", "buffered"])
def test_crossing_laws_have_unit_mass(kind):
    padded = pad(shared_path_instance(2, 8))
    ladder = build_ladder(padded.length, 2)
    tree = dissect_plain(ladder) if kind == "plain" else dissect_shifted(ladder)
    table = exhaustive_expectation(padded, DelayAssignment(tree, 2))
    for law in table.crossing.values():
        assert sum(law.values()) == pytest.approx(1.0)


def assert_closed_form_matches_exhaustive(padded, assignment):
    table = exhaustive_expectation(padded, assignment)

    for (packet, pos), law in table.crossing.items():
        assert law == crossing_distribution(assignment, packet, pos), (packet, pos)
        # at the full frontier the walker's point mass is the crossing slot
        if assignment.fully_fixed:
            assert law == {crossing_time(assignment, packet, pos): 1.0}, (packet, pos)
    assert expected_load(padded, assignment) == table.load

    # the fixer's level workspace must rebuild the same table, in exact
    # integer units of 1/scale: blurred over the frontier level while it is
    # open, else pinned to the last level's draws
    index = _CrossingIndex(padded, assignment, assignment.n_levels)
    if not assignment.fully_fixed:
        ws = _LevelWorkspace(index, assignment, assignment.frontier)
        for var in range(len(ws.by_var)):
            ws.spread(var, 0, +1)
    else:
        last = assignment.n_levels - 1
        ws = _LevelWorkspace(index, assignment, last)
        for var in range(len(ws.by_var)):
            packet, block = divmod(var, ws.n_blocks)
            ws.spread(var, assignment.value(packet, last, block), +1)
    # Y keeps a row only for an edge that two or more packets use, and twin
    # edges read one row, each from a slot of its own; map every row cell
    # back to the (edge, slot) of each edge that reads it
    shared = ws.index.row_of
    rows = {
        (edge, lo + index): value
        for edge, (row, lo) in shared.items()
        for index, value in enumerate(ws.y[row])
        if value
    }
    expected = {key: value * ws.scale for key, value in table.load.items()}
    assert rows == {key: value for key, value in expected.items() if key[0] in shared}
    # an unshared edge holds one packet's law: no cell of it can exceed
    # scale; once every level is pinned, the deeper law is a point mass, so
    # every block's ceiling is 1 and every unshared cell holds exactly the
    # workspace's unshared maximum, budget
    unshared = [value for key, value in expected.items() if key[0] not in shared]
    assert all(value <= ws.scale for value in unshared)
    if assignment.fully_fixed:
        assert ws.ceiling == [1] * ws.n_blocks
        assert all(value == ws.unshared_max == ws.budget for value in unshared)


@pytest.mark.parametrize("kind", ["plain", "buffered"])
@pytest.mark.parametrize("frontier", [0, 1, 2])
def test_exhaustive_agrees_with_closed_form(kind, frontier):
    # the closed-form law and the outcome-by-outcome walk must agree at
    # every frontier, for both block shapes
    padded = pad(shared_path_instance(2, 16))
    ladder = build_ladder(padded.length, 2)
    tree = dissect_plain(ladder) if kind == "plain" else dissect_shifted(ladder)
    assignment = DelayAssignment(tree, padded.padded.n_packets)
    fixed = [[2, 7, 11, 16], [16, 1, 5, 9]]
    if frontier >= 1:
        assignment.set_level(0, [row[: tree.n_blocks(0)] for row in fixed])
    if frontier >= 2:
        budget = ladder.levels[1].wait_budget
        assignment.set_level(
            1, [[(b % budget) + 1 for b in range(tree.n_blocks(1))] for _ in range(2)]
        )
    assert_closed_form_matches_exhaustive(padded, assignment)


@pytest.mark.parametrize("kind", ["plain", "buffered"])
@pytest.mark.parametrize("index", [0, 2, 4, 8])
def test_exhaustive_agrees_with_closed_form_on_random_instances(kind, index):
    # instances of the acceptance small suite, at every frontier, with the
    # fixed levels drawn at random
    inst = generate_random_instance(f"accept2/{index}", max_packets=6, max_length=28, n_nodes=12)
    padded = pad(inst)
    ladder = build_ladder(padded.length, 2)
    tree = dissect_plain(ladder) if kind == "plain" else dissect_shifted(ladder)
    assignment = DelayAssignment(tree, padded.padded.n_packets)
    rng = random.Random(f"closed-form/{kind}/{index}")
    while True:
        assert_closed_form_matches_exhaustive(padded, assignment)
        if assignment.fully_fixed:
            break
        level = assignment.frontier
        budget = ladder.levels[level].wait_budget
        assignment.set_level(
            level,
            [
                [rng.randint(1, budget) for _ in range(tree.n_blocks(level))]
                for _ in range(padded.padded.n_packets)
            ],
        )


def test_exhaustive_point_mass_when_fully_fixed(fig1):
    padded = pad(fig1)
    tree = dissect_plain(build_ladder(padded.length, 2))
    assignment = DelayAssignment(tree, padded.padded.n_packets)
    assignment.fill_remaining(3)
    table = exhaustive_expectation(padded, assignment)
    for (packet, pos), law in table.crossing.items():
        assert law == {crossing_time(assignment, packet, pos): pytest.approx(1.0)}


def test_exhaustive_refuses_oversized_outcome_spaces():
    padded = pad(shared_path_instance(1, 16))
    tree = dissect_plain(build_ladder(padded.length, 2))
    with pytest.raises(OracleCapacityError):
        exhaustive_expectation(padded, DelayAssignment(tree, 1), cap=2)
