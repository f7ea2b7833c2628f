"""Properties of the whole pipeline on random valid instances."""
import json
import random
from itertools import accumulate

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from cd_router import fixer as fixer_mod  # noqa: E402
from cd_router import lowerbound, oracle  # noqa: E402
from cd_router.delay_model import DelayAssignment  # noqa: E402
from cd_router.dissection import build_ladder, dissect_plain, dissect_shifted  # noqa: E402
from cd_router.fixer import FixerConfig, realized_loads, run_pipeline, stretch  # noqa: E402
from cd_router.instance import generate_random_instance, pad, shared_path_instance  # noqa: E402
from cd_router.schedule import encode  # noqa: E402
from cd_router.simulator import CheckRequirements, check, simulate  # noqa: E402


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    variant=st.sampled_from(["plain", "buffered"]),
    strategy=st.sampled_from(["resample", "greedy"]),
)
def test_a_run_is_deterministic_feasible_and_within_its_counting_cap(seed, variant, strategy):
    instance = generate_random_instance(seed, max_packets=24, max_length=64)
    config = FixerConfig(variant=variant, strategy=strategy, seed=seed)
    result = run_pipeline(instance, config)
    again = run_pipeline(instance, config)
    assert (again.schedule, again.report) == (result.schedule, result.report)
    report = result.report
    replay = simulate(instance, result.schedule, capacity=1)
    assert check(replay, CheckRequirements(capacity=1, makespan_bound=report.makespan)).ok
    assert replay.makespan == report.makespan
    assert report.load <= report.counting_cap


def _outputs_and_rows(instance, config):
    """The run's encoded schedule, report JSON and level fixes; and (rows, shared edges) per index built."""
    indexes = []

    class Recorded(fixer_mod._CrossingIndex):
        def __init__(self, *args):
            super().__init__(*args)
            indexes.append((len(self.edges), len(self.row_of)))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixer_mod, "_CrossingIndex", Recorded)
        result = run_pipeline(instance, config)
    report = result.report
    return (encode(result.schedule), json.dumps(report.to_dict()), report.levels), indexes


# random instances, shared paths and permutation gadgets: (kind, argument)
SHAPES = st.one_of(
    st.tuples(st.just("random"), st.integers(min_value=0, max_value=2**32)),
    st.tuples(st.just("shared"), st.sampled_from([(8, 32), (30, 32), (16, 64), (6, 128)])),
    st.tuples(st.just("gadget"), st.integers(min_value=0, max_value=2**32)),
)


def _shape_instance(shape):
    kind, arg = shape
    if kind == "random":
        return generate_random_instance(arg, max_packets=24, max_length=64)
    if kind == "shared":
        return shared_path_instance(*arg)
    return lowerbound.generate(8, seed=arg).instance


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(
    shape=SHAPES,
    variant=st.sampled_from(["plain", "buffered"]),
    strategy=st.sampled_from(["resample", "greedy"]),
    delta=st.sampled_from([2, 4]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_twin_rows_change_no_output_property(shape, variant, strategy, delta, seed):
    # with every position a class of its own no two edges are twins, so each
    # shared edge keeps its own row, as before twins shared one
    kind = shape[0]
    instance = _shape_instance(shape)
    config = FixerConfig(variant=variant, delta=delta, strategy=strategy, seed=seed)
    outputs, rows = _outputs_and_rows(instance, config)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixer_mod, "_position_classes", lambda tree, levels: tuple(range(tree.length)))
        alone, single = _outputs_and_rows(instance, config)
    assert alone == outputs
    assert all(kept == shared for kept, shared in single)
    assert [shared for _, shared in rows] == [shared for _, shared in single]
    if kind == "shared" and rows and variant == "plain":
        assert rows[0][0] < rows[0][1]  # a shared path under the plain tree has twins


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    shape=SHAPES,
    variant=st.sampled_from(["plain", "buffered"]),
    delta=st.sampled_from([2, 4]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_items_and_their_workspaces_match_a_rebuild_from_the_rows_property(shape, variant, delta, seed):
    # an item is a crossing of an edge that holds its own row; a level's
    # workspace holds its items alone, each at the slot that the draws of
    # the levels before it give on the full list of the packet's positions
    instance = _shape_instance(shape)
    padded = pad(instance)
    ladder = build_ladder(padded.length, min(delta, padded.length))
    tree = dissect_plain(ladder) if variant == "plain" else dissect_shifted(ladder)
    levels = ladder.depth - (variant == "buffered")  # the levels a run fixes, and its index serves
    if levels <= 0:
        return
    assignment = DelayAssignment(tree, instance.n_packets)
    index = fixer_mod._CrossingIndex(padded, assignment, levels)
    holds = {edge for edge, (row, _) in index.row_of.items() if index.edges[row] == edge}
    items = [  # (packet, position, edge), in packet order, then position order
        (packet, p, edge) for packet, path in enumerate(instance.paths) for p, edge in enumerate(path) if edge in holds
    ]
    assert index.first == list(accumulate((sum(edge in holds for edge in path) for path in instance.paths), initial=0))
    assert index.pos == [p for _, p, _ in items]
    assert index.rows == [index.row_of[edge][0] for _, _, edge in items]
    assert index.by_row == [
        [i for i, (_, _, edge) in enumerate(items) if index.row_of[edge][0] == row] for row in range(len(index.edges))
    ]
    rng = random.Random(seed)
    blocks = tree.columns.blocks
    for level in range(levels):
        ws = fixer_mod._LevelWorkspace(index, assignment, level)
        n_blocks = tree.n_blocks(level)
        full = [assignment.fixed_slots(packet, level) for packet in range(instance.n_packets)]
        assert ws.bases == [full[packet][p] - index.row_of[edge][1] for packet, p, edge in items]
        assert ws.var == [packet * n_blocks + blocks[level][p] for packet, p, _ in items]
        budget = ladder.levels[level].wait_budget
        assignment.set_level(level, [
            [rng.randint(1, budget) for _ in range(n_blocks)] for _ in range(instance.n_packets)
        ])


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(
    instance=st.one_of(
        # about half of these walks revisit a node
        st.builds(generate_random_instance, st.integers(0, 2**32), max_packets=st.just(8), max_length=st.just(12)),
        st.builds(shared_path_instance, st.integers(2, 12), st.integers(1, 8)),
    ),
    data=st.data(),
)
def test_ranks_count_the_lower_packets_in_each_cell_property(instance, data):
    # steps of 1 or 2 slots from a start in 1..3 make packets that share an
    # edge collide often; entries past a path's end are not read
    slots = []
    for path in instance.paths:
        start = data.draw(st.integers(1, 3))
        steps = data.draw(st.lists(st.integers(1, 2), min_size=len(path) + 2, max_size=len(path) + 2))
        slots.append([start + sum(steps[:p]) for p in range(len(path) + data.draw(st.integers(0, 2)))])
    crossings = [set(zip(path, packet_slots)) for path, packet_slots in zip(instance.paths, slots)]
    expected = [
        [sum(cell in crossings[j] for j in range(k)) for cell in zip(path, packet_slots)]
        for k, (path, packet_slots) in enumerate(zip(instance.paths, slots))
    ]
    assert realized_loads(instance, slots) == expected


def _finalize_slots(instance, config):
    """Run the pipeline; check the slots `finalize` hands `stretch`, and return how many levels it fixed.

    A packet's slots are those its draws give on every level, open levels
    at draw 1; the ranks and the stretched schedule are those rebuilt from
    the pre-stretch schedule's own crossing slots.
    """
    built = []

    def kept(*args):
        built.append(args)
        return stretch(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fixer_mod, "stretch", kept)
        result = run_pipeline(instance, config)
    [(prestretch, slots, _, ranks)] = built
    assert prestretch is result.prestretch
    assignment = result.assignment
    for packet, m in enumerate(result.padded.original_lengths):
        expected = assignment.fixed_slots(packet, assignment.n_levels)[:m]
        assert list(slots[packet][:m]) == list(expected), packet
    fixed = len(result.report.levels)
    if fixed == 0:  # every packet reads the one column
        assert all(packet_slots is slots[0] for packet_slots in slots)
    rebuilt = [prestretch.crossing_slots(packet) for packet in range(instance.n_packets)]
    assert ranks == realized_loads(instance, rebuilt)
    assert result.schedule == stretch(prestretch, rebuilt, result.report.load, ranks)
    return fixed, assignment.n_levels


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    variant=st.sampled_from(["plain", "buffered"]),
    strategy=st.sampled_from(["resample", "greedy"]),
    max_length=st.sampled_from([16, 64]),
)
def test_finalize_builds_each_packets_slots_over_the_open_levels_column_property(
    seed, variant, strategy, max_length
):
    instance = generate_random_instance(seed, max_packets=24, max_length=max_length)
    _finalize_slots(instance, FixerConfig(variant=variant, strategy=strategy, seed=seed))


@pytest.mark.parametrize("variant, fixed, n_levels", [
    ("buffered", 0, 2),  # no level fixed: every packet is the column
    ("plain", 1, 2),     # level 0 fixed, level 1 in the column
])
def test_finalize_slots_with_no_and_some_levels_fixed(variant, fixed, n_levels):
    config = FixerConfig(variant=variant, seed=0)
    assert _finalize_slots(shared_path_instance(8, 32), config) == (fixed, n_levels)


def _pinned(assignment, levels):
    """A fresh assignment on the run's tree with `levels` pinned to the run's draws."""
    pinned = DelayAssignment(assignment.tree, len(assignment.values))
    for level in levels:
        pinned.set_level(level, [values[level] for values in assignment.values])
    return pinned


@settings(derandomize=True, database=None, deadline=None, max_examples=240)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    variant=st.sampled_from(["plain", "buffered"]),
    strategy=st.sampled_from(["resample", "greedy"]),
)
def test_a_run_agrees_with_the_oracles_property(seed, variant, strategy):
    # the oracles share no code with the fixer or the simulator: each level
    # fix's maximum is the enumerated one at its frontier, and both schedules
    # replay slot by slot as the event-driven simulator replays them
    instance = generate_random_instance(seed, max_packets=6, max_length=24)
    result = run_pipeline(instance, FixerConfig(variant=variant, delta=2, strategy=strategy, seed=seed))
    report = result.report
    for lf in report.levels:
        table = oracle.exhaustive_expectation(result.padded, _pinned(result.assignment, range(lf.level + 1)))
        assert max(table.load.values()) == lf.achieved, lf.level
        assert lf.achieved <= lf.gamma_after
    for schedule, capacity, makespan in (
        (result.schedule, 1, report.makespan),
        (result.prestretch, report.load, report.makespan_prestretch),
    ):
        fast = simulate(instance, schedule, capacity=capacity)
        slow = oracle.stepped_simulation(instance, schedule, capacity=capacity)
        assert (slow.makespan, slow.max_load, slow.max_occupancy) == (
            fast.makespan, fast.max_load, fast.max_occupancy
        )
        assert slow.makespan == makespan and slow.max_load <= capacity
    # the last replay is the pre-stretch one
    assert slow.max_edge_wait == fast.max_edge_wait == report.prestretch_max_edge_wait
    if instance.n_packets <= 3:
        try:
            best = oracle.optimal_makespan(instance)
        except oracle.OracleCapacityError:
            return
        # not asserted: how far a delivered schedule is from the optimum
        print(f"seed={seed} {variant}/{strategy}: makespan {report.makespan}, optimal {best}")
