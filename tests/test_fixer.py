"""Level fixing, finalization, stretching, and the end-to-end pipeline."""
import dataclasses
import hashlib
import json
import random
import re
from collections import Counter
from math import floor, prod

import pytest

from cd_router import delay_model
from cd_router import fixer as fixer_mod
from cd_router import instance as instance_mod
from cd_router import lowerbound
from cd_router import oracle
from cd_router.delay_model import DelayAssignment, crossing_time, expected_load
from cd_router.dissection import build_ladder, dissect_plain, dissect_shifted
from cd_router.fixer import (
    FixerConfig,
    FixerError,
    _CrossingIndex,
    _greedy_fix,
    _LevelWorkspace,
    _resample_fix,
    realized_loads,
    run_pipeline,
    schedule_from_assignment,
    stretch,
    unpad_schedule,
)
from cd_router.instance import (
    Edge,
    Instance,
    generate_random_instance,
    pad,
    shared_path_instance,
    stats,
)
from cd_router.schedule import Schedule, encode
from cd_router.simulator import CheckRequirements, SimulationTrace, check, simulate

from conftest import randomize_remaining


# --- config ------------------------------------------------------------------

def test_slack_scales_with_block_length():
    plain = FixerConfig(variant="plain")
    assert plain.slack(256, 1.0) == pytest.approx(256 ** (-1 / 32))
    assert plain.slack(256, 4.0) == pytest.approx(4 * 256 ** (-1 / 32))
    buffered = FixerConfig(variant="buffered")
    assert buffered.slack(256, 2.0) == pytest.approx(2 * 256 ** (-1 / 64))


def test_config_sets_four_fields_and_reads_the_loop_bounds():
    assert [f.name for f in dataclasses.fields(FixerConfig)] == ["variant", "delta", "strategy", "seed"]
    for name in ("resample_budget", "restart_budget", "relax_ladder", "slack_exponent", "finalize_strategy"):
        with pytest.raises(TypeError):
            FixerConfig(**{name: 1})
    config = FixerConfig(variant="buffered")
    assert (config.resample_budget, config.restart_budget, config.relax_ladder) == (1_000, 1, (1, 2, 4, 8))


def _set_constants(monkeypatch, **constants):
    """Give the resampling loop other bounds, for one test."""
    for name, value in constants.items():
        monkeypatch.setattr(FixerConfig, name, value)


def test_pipeline_validates_the_instance_once(monkeypatch):
    calls = []
    validate = instance_mod.validate
    monkeypatch.setattr(instance_mod, "validate", lambda inst: calls.append(inst) or validate(inst))
    inst = shared_path_instance(4, 16)
    result = run_pipeline(inst, FixerConfig(seed="0"))
    assert len(calls) == 1
    assert (result.padded.stats.congestion, result.padded.stats.dilation) == (4, 16)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="variant"):
        run_pipeline(shared_path_instance(1, 2), FixerConfig(variant="diagonal"))
    with pytest.raises(ValueError, match="strategy"):
        run_pipeline(shared_path_instance(1, 2), FixerConfig(strategy="anneal"))
    for delta in (1, 0, -3):
        with pytest.raises(ValueError, match="delta"):
            run_pipeline(shared_path_instance(1, 2), FixerConfig(delta=delta))


@pytest.mark.parametrize("delta", [2.5, 4.0, "4", True])
def test_config_rejects_a_delta_that_is_not_an_int(delta):
    # neither coerced nor run: 4.0 would otherwise reach the report as 4.0
    with pytest.raises(ValueError, match=f"delta must be an integer, got {delta!r}"):
        run_pipeline(shared_path_instance(1, 2), FixerConfig(delta=delta))


@pytest.mark.parametrize("seed", [1.0, True, [1], None])
def test_config_rejects_a_seed_that_is_not_an_int_or_a_str(seed):
    # each of these used to run, as the seed its text names, and give a schedule of its own
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer or a string, got {seed!r}")):
        run_pipeline(shared_path_instance(8, 32), FixerConfig(seed=seed))


def test_an_int_seed_and_its_text_give_the_same_schedule():
    inst = shared_path_instance(8, 32)
    schedules = {encode(run_pipeline(inst, FixerConfig(seed=seed)).schedule) for seed in (1, "1")}
    assert len(schedules) == 1
    # the digest these seeds gave before other types were refused
    assert hashlib.sha256(schedules.pop().encode()).hexdigest()[:16] == "7de5a673b2a83ff6"


# --- level workspace ---------------------------------------------------------

def _workspace_instance(name: str):
    if name.startswith("accept2/"):
        # acceptance small suite: dummy edges, and shared ids e10 < e13 < e2
        return generate_random_instance(name, max_packets=6, max_length=28, n_nodes=12)
    c, d = name.removeprefix("shared-").split("x")
    return shared_path_instance(int(c), int(d))


_ROWS_AT_DELTA_2 = {
    ("shared-30x32", "plain", "every level"): 8, ("shared-30x32", "plain", "the run's levels"): 4,
    ("shared-30x32", "buffered", "every level"): 24, ("shared-30x32", "buffered", "the run's levels"): 5,
    ("accept2/8", "plain", "every level"): 10, ("accept2/8", "plain", "the run's levels"): 10,
    ("accept2/8", "buffered", "every level"): 11,
    **{("shared-1x64", kind, served): 0 for kind in ("plain", "buffered")
       for served in ("every level", "the run's levels")},
}


@pytest.mark.parametrize("served", ["every level", "the run's levels"])
@pytest.mark.parametrize("kind", ["plain", "buffered"])
@pytest.mark.parametrize("name", ["shared-30x32", "accept2/8", "shared-1x64"])
def test_workspace_rows_match_a_table_rebuilt_from_the_draws(monkeypatch, name, kind, served):
    _set_constants(monkeypatch, resample_budget=300)
    padded = pad(_workspace_instance(name))
    ladder = build_ladder(padded.length, 2)
    tree = dissect_plain(ladder) if kind == "plain" else dissect_shifted(ladder)
    # the index serves every level, or those `run_pipeline` fixes, which
    # leave fewer blocks, and so more twins
    levels = len(ladder.levels) if served == "every level" else ladder.depth - (kind == "buffered")
    if not levels:  # a buffered run on a ladder of depth 1 fixes no level, and builds no index
        assert (name, kind) == ("accept2/8", "buffered")
        return
    uses = Counter(eid for path in padded.padded.paths for eid in path)
    shared = sorted(eid for eid, n in uses.items() if n >= 2)
    rows = set()
    for seed in range(3):
        for strategy in ("resample", "greedy"):
            assignment = DelayAssignment(tree, padded.padded.n_packets)
            index = _CrossingIndex(padded, assignment, levels)
            config = FixerConfig(variant=kind, seed=seed)
            # every level served, built on the draws fixed at the levels before it
            for level in range(levels):
                ws = _LevelWorkspace(index, assignment, level)
                # one unit for both strategies: this level's budget and every deeper one
                assert ws.scale == prod(lv.wait_budget for lv in ladder.levels[level:])
                # every edge that two or more padded paths use reads one row,
                # from a slot of its own; a row is held by the least edge
                # that reads it, in edge id order
                row_of = ws.index.row_of
                assert sorted(row_of) == shared
                assert sorted({row for row, _ in row_of.values()}) == list(range(len(ws.y)))
                assert ws.index.edges == [
                    min(edge for edge in shared if row_of[edge][0] == row) for row in range(len(ws.y))
                ]
                assert [row_of[edge] for edge in ws.index.edges] == list(enumerate(ws.index.lo))
                rows.add(len(ws.y))
                # each row spans the ladder-wide reach, the same at every level
                if level == 0:
                    reach = (ws.index.lo, list(map(len, ws.y)))
                    # and no wider than level 0 reaches under some draw
                    blurred = _LevelWorkspace(index, assignment, level)
                    for var in range(len(blurred.by_var)):
                        blurred.spread(var, 0, +1)
                    assert all(row[0] and row[-1] for row in blurred.y)
                assert (ws.index.lo, list(map(len, ws.y))) == reach, level
                slack = config.slack(ladder.levels[level].block_len, 1.0)
                limit = floor((1.0 + slack) * ws.scale)
                if strategy == "resample":
                    draws, peak, _ = _resample_fix(ws, limit, config, f"workspace/{seed}/{level}")
                else:
                    draws, peak = _greedy_fix(ws)
                assignment.set_level(level, draws)
                table = {
                    key: p * ws.scale for key, p in expected_load(padded, assignment).items()
                }
                # each shared edge's cells are its row's, twins included
                for edge, (row, lo) in row_of.items():
                    cells = [table.get((edge, lo + index), 0) for index in range(len(ws.y[row]))]
                    assert ws.y[row] == cells, (level, edge)
                # and every shared-edge cell of the table lies inside its row
                assert sum(sum(ws.y[row]) for row, _ in row_of.values()) == sum(
                    v for (edge, _), v in table.items() if uses[edge] >= 2
                )
                # a failed attempt, too, reports the max Y its last draws left
                assert peak == ws.max_y() == max(table.values())
                # the first bad cell is the least over every edge, twins included
                for lim in sorted({limit, ws.scale} | {v - 1 for v in table.values() if v > ws.scale}):
                    cell, top = ws.first_bad_cell(lim)
                    found = None if cell is None else (ws.index.edges[cell[0]], ws.index.lo[cell[0]] + cell[1])
                    assert found == min((key for key, v in table.items() if v > lim), default=None)
                    # with no bad cell, the one scan has read max Y
                    assert cell is not None or top == ws.max_y()
    # twins share a row: on the 30x32 path at delta 2, plain positions alike
    # in their blocks of 4 (of 8 at the run's levels), buffered ones also in
    # their duty tables; two of accept2/8's 11 shared edges are twins under
    # the plain tree
    assert rows == {_ROWS_AT_DELTA_2[name, kind, served]}


@pytest.mark.parametrize("kind, rows", [("plain", 32), ("buffered", 19)])
def test_twin_rows_hold_every_twins_loads_on_the_deep_shared_ladder(kind, rows):
    # D' 1024 at delta 4 has three levels; at the levels a run fixes, its
    # 1,024 edges are twins in 32 rows (plain) or 19 (buffered), and every
    # edge's cells are still its own expected loads
    padded = pad(shared_path_instance(2, 1024))
    ladder = build_ladder(padded.length, 4)
    tree = dissect_plain(ladder) if kind == "plain" else dissect_shifted(ladder)
    levels = ladder.depth - (kind == "buffered")
    assignment = DelayAssignment(tree, 2)
    index = _CrossingIndex(padded, assignment, levels)
    assert (len(index.edges), len(index.row_of)) == (rows, 1024)
    rng = random.Random(f"deep-twins/{kind}")
    for level in range(levels):
        ws = _LevelWorkspace(index, assignment, level)
        draws = [rng.randint(1, ws.budget) for _ in ws.by_var]
        ws.fill(draws)
        assignment.set_level(level, ws.per_packet(draws))
        table = expected_load(padded, assignment)
        for edge, (row, lo) in index.row_of.items():
            assert ws.y[row] == [table.get((edge, lo + i), 0) * ws.scale for i in range(len(ws.y[row]))], edge


def test_a_workspace_refuses_a_level_its_index_does_not_serve():
    # twins are found over the levels the index serves; past them they can differ
    padded = pad(shared_path_instance(8, 32))
    tree = dissect_plain(build_ladder(padded.length, 2))
    assignment = DelayAssignment(tree, padded.padded.n_packets)
    index = _CrossingIndex(padded, assignment, 1)
    _LevelWorkspace(index, assignment, 0)
    with pytest.raises(ValueError, match="serves levels 0 .. 0, not level 1"):
        _LevelWorkspace(index, assignment, 1)


def _level_workspace_args(name: str, kind: str, rng: random.Random):
    """`_LevelWorkspace` arguments for each level at delta 2, the levels before it fixed at random."""
    padded = pad(_workspace_instance(name))
    tree = (dissect_plain if kind == "plain" else dissect_shifted)(build_ladder(padded.length, 2))
    assignment = DelayAssignment(tree, padded.padded.n_packets)
    index = _CrossingIndex(padded, assignment, len(tree.ladder.levels))
    while not assignment.fully_fixed:
        level = assignment.frontier
        yield index, assignment, level
        budget = tree.ladder.levels[level].wait_budget
        assignment.set_level(level, [
            [rng.randint(1, budget) for _ in range(tree.n_blocks(level))]
            for _ in range(padded.padded.n_packets)
        ])


@pytest.mark.parametrize("kind", ["plain", "buffered"])
@pytest.mark.parametrize("name", ["shared-30x32", "accept2/3", "accept2/8"])
def test_move_equals_a_fill_with_the_final_draws(name, kind):
    rng = random.Random(f"move/{name}/{kind}")
    budgets = []
    for args in _level_workspace_args(name, kind, rng):
        ws = _LevelWorkspace(*args)
        assert ws.y
        budgets.append(ws.budget)
        n_vars = len(ws.by_var)
        draws = [rng.randint(1, ws.budget) for _ in range(n_vars)]
        ws.fill(draws)
        for _ in range(4):
            for _ in range(rng.randint(1, 3 * n_vars)):
                var = rng.randrange(n_vars)
                new = rng.choice([draws[var], rng.randint(1, ws.budget)])  # repeats included
                ws.move(var, draws[var], new)
                draws[var] = new
            fresh = _LevelWorkspace(*args)
            fresh.fill(draws)
            assert ws.y == fresh.y
    assert len(budgets) >= 2 and min(budgets) <= 4


@pytest.mark.parametrize("kind", ["plain", "buffered"])
@pytest.mark.parametrize("name", ["shared-30x32", "accept2/3", "accept2/8"])
def test_plans_are_kept_and_split_by_position_class(name, kind):
    # a plan holds Y's rows themselves, and every later move reuses it
    rng = random.Random(f"plans/{name}/{kind}")
    groups = []
    for args in _level_workspace_args(name, kind, rng):
        ws = _LevelWorkspace(*args)
        n_vars = len(ws.by_var)
        draws = [rng.randint(1, ws.budget) for _ in range(n_vars)]
        ws.fill(draws)
        for var in range(n_vars):  # every variable's plan is built
            new = rng.randint(1, ws.budget)
            ws.move(var, draws[var], new)
            draws[var] = new
        plans = list(ws.plans)
        for _ in range(rng.randint(1, 3 * n_vars)):
            var = rng.randrange(n_vars)
            new = rng.choice([draws[var], rng.randint(1, ws.budget)])  # repeats included
            ws.move(var, draws[var], new)
            draws[var] = new
        assert all(a is b for a, b in zip(plans, ws.plans))  # none was rebuilt
        fresh = _LevelWorkspace(*args)
        fresh.fill(draws)
        assert ws.y == fresh.y, ws.level
        groups.append(max(map(len, plans)))
    assert len(groups) >= 2
    # a shifted level's per-position tables split a variable over position classes
    assert (max(groups) > 1) == (kind == "buffered")


@pytest.mark.parametrize("c, d, resampled", [(30, 32, True), (16, 64, False)])
def test_plans_are_lazy_and_built_once(monkeypatch, c, d, resampled):
    built, moved, workspaces = Counter(), set(), []
    plan, move, resample_fix = _LevelWorkspace._plan, _LevelWorkspace.move, fixer_mod._resample_fix

    def counted_plan(ws, var):
        built[ws, var] += 1
        return plan(ws, var)

    def recorded_move(ws, var, old, new):
        moved.add((ws, var))
        return move(ws, var, old, new)

    def recorded_fix(ws, *args):
        outcome = resample_fix(ws, *args)
        workspaces.append((ws, outcome[2]))
        return outcome

    monkeypatch.setattr(_LevelWorkspace, "_plan", counted_plan)
    monkeypatch.setattr(_LevelWorkspace, "move", recorded_move)
    monkeypatch.setattr(fixer_mod, "_resample_fix", recorded_fix)
    run_pipeline(shared_path_instance(c, d), FixerConfig(variant="plain", seed=0))
    assert workspaces and all(n == 1 for n in built.values())
    # a plan is built for exactly the variables the loop redraws
    assert set(built) == moved
    for ws, resamples in workspaces:
        n_built = sum(w is ws for w, _ in built)
        assert (resamples > 0, n_built > 0) == (resampled, resampled)


def _count_table(ws: _LevelWorkspace, draws: list[int]) -> list[list[int]]:
    """Y at the draws in count units, by the definition: each item adds its deeper law's counts."""
    y = [[0] * len(row) for row in ws.y]
    for i, var in enumerate(ws.var):
        p = ws.pos[i]
        slot0 = ws.bases[i] + ws.delays[p][draws[var]]
        for dt, count in delay_model.residual_law(ws.tree, ws.level + 1, p + 1):
            y[ws.rows[i]][slot0 + dt] += count
    return y


@pytest.mark.parametrize("kind", ["plain", "buffered"])
@pytest.mark.parametrize("name", ["shared-30x32", "accept2/3", "accept2/8"])
def test_count_units_and_budget_units_hold_one_table(name, kind):
    # the workspace counts in units of 1/(this level's budget times the
    # deeper ones); every budget is a power of two, so a table counted over
    # the deeper budgets alone finds the same bad cells and the same
    # maximum over its scale
    rng = random.Random(f"units/{name}/{kind}")
    levels = []
    for args in _level_workspace_args(name, kind, rng):
        ws = _LevelWorkspace(*args)
        budget = ws.budget
        deeper = prod(lv.wait_budget for lv in ws.tree.ladder.levels[ws.level + 1:])
        assert ws.scale == budget * deeper
        levels.append(ws.level)
        n_vars = len(ws.by_var)
        draws = [rng.randint(1, budget) for _ in range(n_vars)]
        ws.fill(draws)
        for _ in range(4):
            for _ in range(rng.randint(1, 2 * n_vars)):
                var, new = rng.randrange(n_vars), rng.randint(1, budget)
                ws.move(var, draws[var], new)
                draws[var] = new
            counts = _count_table(ws, draws)
            assert [[budget * v for v in row] for row in counts] == ws.y
            unshared = max(ws.ceiling)
            count_max = max(unshared, max(map(max, counts), default=0))
            assert count_max / deeper == ws.max_y() / ws.scale
            cells = {v / ws.scale for row in ws.y for v in row}
            targets = [rng.uniform(0, 1.25 * count_max / deeper) for _ in range(20)]
            targets += rng.sample(sorted(cells), min(len(cells), 10))
            bad = 0
            for target in targets:
                # the least bad cell of the count table, by row then slot
                lim, cell, peak = floor(target * deeper), None, unshared
                for r, row in enumerate(counts):
                    if max(row) > lim:
                        cell, peak = (r, next(i for i, v in enumerate(row) if v > lim)), max(row)
                        break
                    peak = max(peak, max(row))
                assert (cell, budget * peak) == ws.first_bad_cell(floor(target * ws.scale)), target
                bad += cell is not None
            assert 0 < bad < len(targets)
        # the same workspace holds open variables too, and takes them off exactly
        before = [row[:] for row in ws.y]
        for var in range(n_vars):
            ws.spread(var, draws[var], -1)
            ws.spread(var, 0, +1)
        for var in range(n_vars):
            ws.spread(var, 0, -1)
            ws.spread(var, draws[var], +1)
        assert ws.y == before
    assert len(levels) >= 2


@pytest.mark.parametrize("kind", ["plain", "buffered"])
@pytest.mark.parametrize("name", ["shared-30x32", "accept2/3", "accept2/8"])
def test_dependents_are_the_variables_whose_removal_changes_the_cell(name, kind):
    rng = random.Random(f"dependents/{name}/{kind}")
    for args in _level_workspace_args(name, kind, rng):
        ws = _LevelWorkspace(*args)
        draws = [rng.randint(1, ws.budget) for _ in range(len(ws.by_var))]
        ws.fill(draws)
        y = ws.y
        cells = [(r, i) for r, row in enumerate(y) for i in range(len(row))]
        unreached = [(r, i) for r, i in cells if y[r][i] == 0]
        assert unreached
        cells = rng.sample(cells, min(len(cells), 40)) + rng.sample(unreached, min(len(unreached), 10))
        expected = {cell: [] for cell in cells}
        before = [row[:] for row in y]
        for var in range(len(ws.by_var)):
            # Y's rows change only in place: take the variable off and put it back
            ws.spread(var, draws[var], -1)
            for r, i in cells:
                if y[r][i] != before[r][i]:
                    expected[r, i].append(var)
            ws.spread(var, draws[var], +1)
        assert y == before
        for cell in cells:
            assert ws.dependents(cell, draws) == expected[cell], cell


def _per_draw_blur(ws: _LevelWorkspace, variables) -> list[list[int]]:
    """Y with the variables open, by the definition: each draw adds the deeper law at weight 1."""
    y = [[0] * len(row) for row in ws.y]
    for var in variables:
        for draw in range(1, ws.budget + 1):
            for i in ws.by_var[var]:
                p = ws.pos[i]
                slot0 = ws.bases[i] + ws.delays[p][draw]
                for dt, count in delay_model.residual_law(ws.tree, ws.level + 1, p + 1):
                    y[ws.rows[i]][slot0 + dt] += count
    return y


@pytest.mark.parametrize("kind", ["plain", "buffered"])  # buffered sublevels bring duty tables
@pytest.mark.parametrize("name", ["shared-30x32", "accept2/3", "accept2/8"])
def test_blur_equals_a_spread_over_every_draw(name, kind):
    rng = random.Random(f"blur/{name}/{kind}")
    levels = []
    for args in _level_workspace_args(name, kind, rng):
        ws = _LevelWorkspace(*args)
        levels.append(ws.level)
        n_vars = len(ws.by_var)
        for var in range(n_vars):
            ws.spread(var, 0, +1)
        assert ws.y == _per_draw_blur(ws, range(n_vars)), ws.level
        off = set(rng.sample(range(n_vars), rng.randint(1, n_vars)))
        for var in off:
            ws.spread(var, 0, -1)
        assert ws.y == _per_draw_blur(ws, [v for v in range(n_vars) if v not in off]), ws.level
    assert levels == list(range(len(levels))) and len(levels) >= 2


def _shared_masks(name: str) -> list[list[bool]]:
    """Per packet, which of its real positions cross an edge that two or more padded paths use."""
    padded = pad(_workspace_instance(name))
    uses = Counter(eid for path in padded.padded.paths for eid in path)
    return [[uses[eid] >= 2 for eid in path] for path in padded.base.paths]


def _private_ceiling(ws: _LevelWorkspace, tails, var: int, shared) -> int:
    """The largest deeper-law count over the variable's unshared positions.

    `tails[p]` is position p's deeper law, and `shared` the instance's
    `_shared_masks`. A variable's unshared positions are its block's
    positions on no shared edge, dummy ones included.
    """
    packet, block = divmod(var, ws.n_blocks)
    mask = shared[packet]
    blocks = ws.tree.columns.blocks[ws.level]
    return max(
        (
            max(c for _, c in tails[p]) for p in range(ws.tree.length)
            if blocks[p] == block and not (p < len(mask) and mask[p])
        ),
        default=0,
    )


def _private_peak(ws: _LevelWorkspace, tails, var: int, draw: int, shared) -> int:
    """`peak` by the definition, with the variable's private ceiling."""
    table = ws.tree.columns.tables[ws.level]
    peak = ws.budget * _private_ceiling(ws, tails, var, shared)
    for i in ws.by_var[var]:
        p = ws.pos[i]
        slot0 = ws.bases[i] + (draw if table is None else table[p][draw - 1])
        for dt, count in tails[p]:
            peak = max(peak, ws.y[ws.rows[i]][slot0 + dt] + ws.budget * count)
    return peak


@pytest.mark.parametrize("kind", ["plain", "buffered"])
@pytest.mark.parametrize("name", ["shared-30x32", "accept2/8"])
def test_peak_with_a_block_ceiling_equals_a_per_variable_private_one(name, kind):
    # the ceiling also counts the shared positions of the block, whose own
    # cells hold at least as much once Y is read plus the variable's laws
    rng = random.Random(f"peak/{name}/{kind}")
    levels, differs, shared = [], 0, _shared_masks(name)
    for args in _level_workspace_args(name, kind, rng):
        ws = _LevelWorkspace(*args)
        levels.append(ws.level)
        tails = [delay_model.residual_law(ws.tree, ws.level + 1, p + 1) for p in range(ws.tree.length)]
        n_vars = len(ws.by_var)
        for var in range(n_vars):
            ws.spread(var, 0, +1)
        # the greedy sweep's own steps, every draw of every variable probed
        for var in range(n_vars):
            ws.spread(var, 0, -1)
            peaks = [ws.peak(var, draw) for draw in range(1, ws.budget + 1)]
            assert peaks == [_private_peak(ws, tails, var, draw, shared) for draw in range(1, ws.budget + 1)]
            differs += ws.ceiling[var % ws.n_blocks] != _private_ceiling(ws, tails, var, shared)
            ws.spread(var, 1 + peaks.index(min(peaks)), +1)
    assert levels == list(range(len(levels))) and len(levels) >= 2
    assert differs  # some variable's block ceiling exceeds its private one


@pytest.mark.parametrize("kind", ["plain", "buffered"])
@pytest.mark.parametrize("name", ["accept2/3", "accept2/8"])
def test_peak_reads_an_empty_plan_and_a_plan_of_several_groups(name, kind):
    rng = random.Random(f"peak-plans/{name}/{kind}")
    seen, shared = set(), _shared_masks(name)
    for args in _level_workspace_args(name, kind, rng):
        ws = _LevelWorkspace(*args)
        tails = [delay_model.residual_law(ws.tree, ws.level + 1, p + 1) for p in range(ws.tree.length)]
        n_vars = len(ws.by_var)
        draws = [rng.randint(1, ws.budget) for _ in range(n_vars)]
        ws.fill(draws)
        for var in range(n_vars):
            ws.spread(var, draws[var], -1)
            peaks = [ws.peak(var, draw) for draw in range(1, ws.budget + 1)]
            assert peaks == [_private_peak(ws, tails, var, draw, shared) for draw in range(1, ws.budget + 1)]
            groups = len(ws.plans[var])
            if groups == 0:  # no shared item: only the ceiling counts
                assert set(peaks) == {ws.budget * ws.ceiling[var % ws.n_blocks]}
            seen.add(min(groups, 2))
            ws.spread(var, draws[var], +1)
    assert seen == ({0, 1, 2} if kind == "buffered" else {0, 1})


@pytest.mark.parametrize("strategies, blurred", [
    ({"strategy": "resample"}, False),
    ({"strategy": "greedy"}, True),
    # plain fixes two levels of the three, the second with one open below it
    ({"strategy": "greedy", "variant": "plain"}, True),
])
def test_only_a_greedy_sweep_computes_a_blur(monkeypatch, strategies, blurred):
    # every workspace reads its tree's level laws; the blur, its own
    # level's residual law, only the greedy sweep reads, and its workspace
    # builds it for itself
    levels = []
    blurs = fixer_mod.level_blurs
    monkeypatch.setattr(fixer_mod, "level_blurs", lambda tree, level: levels.append(level) or blurs(tree, level))
    # a ladder of three levels, of which a buffered run fixes level 0
    config = FixerConfig(**{"variant": "buffered", "delta": 2, **strategies})
    fixed = len(run_pipeline(shared_path_instance(8, 32), config).report.levels)
    assert fixed == (2 if strategies.get("variant") == "plain" else 1)
    assert levels == (list(range(fixed)) if blurred else [])


# --- stretching --------------------------------------------------------------

def _slots(schedule: Schedule) -> list[list[int]]:
    """The schedule's crossing slots per packet, as `realized_loads` and `stretch` read them."""
    return [schedule.crossing_slots(packet) for packet in range(schedule.n_packets)]


def test_stretch_orders_sharers_within_their_window():
    # both packets cross the one shared edge at slot 5; at load 2 the slot
    # expands to the window [9, 10] and packet order breaks the tie
    inst = shared_path_instance(2, 1)
    schedule = Schedule(waits=[[4, 0], [4, 0]])
    assert schedule.crossing_slots(0) == [5]
    slots = _slots(schedule)
    stretched = stretch(schedule, slots, 2, realized_loads(inst, slots))
    assert stretched.crossing_slots(0) == [9]
    assert stretched.crossing_slots(1) == [10]
    trace = simulate(inst, stretched, capacity=1)
    assert trace.max_load == 1


def test_stretch_is_identity_at_unit_load():
    inst = shared_path_instance(2, 3)
    schedule = Schedule(waits=[[0, 1, 0, 0], [2, 0, 0, 0]])
    slots = _slots(schedule)
    assert stretch(schedule, slots, 1, realized_loads(inst, slots)) is schedule


def test_stretch_preserves_order_and_feasibility():
    inst = shared_path_instance(3, 4)
    schedule = Schedule(waits=[[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [2, 0, 0, 0, 0]])
    base = simulate(inst, schedule, capacity=3)
    slots = _slots(schedule)
    stretched = stretch(schedule, slots, base.max_load, realized_loads(inst, slots))
    trace = simulate(inst, stretched, capacity=1)
    assert trace.max_load == 1
    assert trace.makespan <= base.max_load * base.makespan


def _acceptance_small_suite():
    """The instances of the acceptance tests' small suite, in its order."""
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
    return suite


@pytest.mark.parametrize("kind", ["plain", "buffered"])
def test_pipeline_stretches_with_the_ranks_of_the_prestretch_schedule(kind):
    # finalize ranks the padded schedule's real crossings; they are the
    # crossings of the pre-stretch schedule, so its own ranks stretch the same
    for index, inst in enumerate(_acceptance_small_suite()):
        result = run_pipeline(inst, FixerConfig(variant=kind, seed=f"accept2/{index}"))
        load = result.report.load
        slots = _slots(result.prestretch)
        ranks = realized_loads(inst, slots)
        assert result.schedule == stretch(result.prestretch, slots, load, ranks), index


@pytest.mark.parametrize("variant", ["plain", "buffered"])
def test_run_pipeline_sets_every_level_and_finalize_delivers(monkeypatch, variant):
    # the run pins its levels before finalize and leaves the rest open;
    # finalize's residual is the levels the fixer left, and it hands back
    # the pre-stretch and the stretched schedule, so no slot list or rank
    # leaves it
    seen = []
    finalize = fixer_mod.finalize

    def recorded(padded, assignment, report):
        seen.append((assignment.frontier, assignment.fully_fixed))
        seen.append(finalize(padded, assignment, report))
        return seen[-1]

    monkeypatch.setattr(fixer_mod, "finalize", recorded)
    config = FixerConfig(variant=variant, seed=0)
    result = run_pipeline(shared_path_instance(8, 32), config)
    [(frontier, fully_fixed), (prestretch, schedule)] = seen
    report = result.report
    assert frontier == len(report.levels) and not fully_fixed
    assert report.residual_levels == tuple(range(len(report.levels), result.assignment.n_levels))
    assert prestretch is result.prestretch
    assert schedule is result.schedule


def test_pipeline_ranks_the_crossings_once(monkeypatch):
    calls = []
    rank = fixer_mod.realized_loads
    monkeypatch.setattr(fixer_mod, "realized_loads", lambda inst, slots: calls.append(inst) or rank(inst, slots))
    result = run_pipeline(shared_path_instance(8, 32), FixerConfig(seed=0))
    assert result.report.load == 2  # so stretch has work to do
    assert len(calls) == 1


@pytest.mark.parametrize("kind", ["plain", "buffered"])
def test_a_run_derives_each_crossing_slot_once(monkeypatch, kind):
    # finalize builds the slots that the ranking and stretch read, so no
    # schedule is asked for its crossing slots again
    cases = [
        shared_path_instance(8, 32),
        generate_random_instance("0/random-mix/0", max_packets=24, max_length=64),
    ]
    config = FixerConfig(variant=kind, seed=0)
    expected = [encode(run_pipeline(inst, config).schedule) for inst in cases]

    def rederived(self, packet):
        raise AssertionError("a crossing slot was derived again from a schedule")

    monkeypatch.setattr(Schedule, "crossing_slots", rederived)
    results = [run_pipeline(inst, config) for inst in cases]
    assert [encode(result.schedule) for result in results] == expected
    assert all(result.report.load >= 2 for result in results)  # so stretch has work to do


def _count_replays(monkeypatch) -> list:
    calls = []
    replay = fixer_mod.simulate
    monkeypatch.setattr(fixer_mod, "simulate", lambda *a, **k: calls.append(a[1]) or replay(*a, **k))
    return calls


def _disjoint_instance(n_packets: int, length: int) -> Instance:
    """Each packet on a path of its own."""
    nodes = {f"p{k}n{i}" for k in range(n_packets) for i in range(length + 1)}
    edges = [Edge(f"p{k}e{i}", f"p{k}n{i}", f"p{k}n{i + 1}") for k in range(n_packets) for i in range(length)]
    paths = [[f"p{k}e{i}" for i in range(length)] for k in range(n_packets)]
    return Instance(nodes=nodes, edges=edges, paths=paths)


@pytest.mark.parametrize("inst, kind", [
    (shared_path_instance(1, 64), "buffered"),
    (_disjoint_instance(3, 40), "plain"),
])
def test_a_load_1_run_replays_once(monkeypatch, inst, kind):
    # at load 1 stretch hands back the pre-stretch schedule, whose replay is
    # then the capacity-1 check's
    calls = _count_replays(monkeypatch)
    result = run_pipeline(inst, FixerConfig(variant=kind, seed=0))
    assert result.report.load == 1
    assert result.schedule is result.prestretch
    assert calls == [result.prestretch]
    assert result.report.makespan == result.report.makespan_prestretch


def test_a_stretched_run_replays_once(monkeypatch):
    # finalize reads the pre-stretch figures from its own slot lists, so
    # only the stretched schedule is replayed
    calls = _count_replays(monkeypatch)
    result = run_pipeline(shared_path_instance(8, 32), FixerConfig(seed=0))
    assert result.report.load == 2
    assert calls == [result.schedule]


def test_an_unstretched_load_2_schedule_fails_the_one_capacity_1_replay(monkeypatch):
    # an unstretched load-2 schedule must still fail the final check
    monkeypatch.setattr(fixer_mod, "stretch", lambda schedule, slots, load, ranks: schedule)
    calls = _count_replays(monkeypatch)
    with pytest.raises(FixerError, match="capacity-1") as caught:
        run_pipeline(shared_path_instance(8, 32), FixerConfig(seed=0))
    assert caught.value.report.load == 2
    assert len(calls) == 1


def _misranked(monkeypatch, shift):
    """Make `realized_loads` report every rank as `shift(rank)`."""
    rank = fixer_mod.realized_loads
    monkeypatch.setattr(
        fixer_mod, "realized_loads",
        lambda inst, slots: [[shift(r) for r in ranks] for ranks in rank(inst, slots)],
    )


def test_pipeline_refuses_a_load_above_the_counting_bound(monkeypatch):
    _misranked(monkeypatch, lambda r: r + 10)
    with pytest.raises(FixerError, match="counting bound violated: load 12 > ") as caught:
        run_pipeline(shared_path_instance(8, 32), FixerConfig(seed=0))
    assert caught.value.report.load == 12 > caught.value.report.counting_cap


_MISRANKINGS = {"zero": lambda r: 0, "half": lambda r: r // 2, "capped": lambda r: min(r, 1)}


# buffered 30x32 has true load 30 and plain 8x32 load 2; the ranks of plain
# 8x32 are 0 and 1 already, so capping them at 1 leaves them as they are
@pytest.mark.parametrize("inst, kind, shift", [
    (shared_path_instance(30, 32), "buffered", "zero"),
    (shared_path_instance(30, 32), "buffered", "half"),
    (shared_path_instance(30, 32), "buffered", "capped"),
    (shared_path_instance(8, 32), "plain", "zero"),
    (shared_path_instance(8, 32), "plain", "half"),
], ids=lambda v: v if isinstance(v, str) else f"{v.n_packets}x{len(v.paths[0])}")
def test_pipeline_refuses_a_replay_above_the_certified_load(monkeypatch, inst, kind, shift):
    # ranks below the true ones certify a load below the true one; ranks lie
    # in 0 .. load - 1, so two crossings of one cell share a stretched slot
    # and the capacity-1 replay refuses the run
    shift = _MISRANKINGS[shift]
    config = FixerConfig(variant=kind, seed=0)
    result = run_pipeline(inst, config)
    ranks = realized_loads(inst, _slots(result.prestretch))
    assert any(shift(r) != r for rank in ranks for r in rank)
    _misranked(monkeypatch, shift)
    with pytest.raises(FixerError, match="stretched schedule is not capacity-1 feasible") as caught:
        run_pipeline(inst, config)
    assert caught.value.report.load < result.report.load


# --- pipeline ----------------------------------------------------------------

def test_pipeline_is_deterministic():
    inst = generate_random_instance(seed=5, max_packets=6, max_length=24, n_nodes=40)
    a = run_pipeline(inst, FixerConfig(seed=3))
    b = run_pipeline(inst, FixerConfig(seed=3))
    assert encode(a.schedule) == encode(b.schedule)
    assert a.report.to_dict() == b.report.to_dict()
    c = run_pipeline(inst, FixerConfig(seed=4))
    assert encode(c.schedule)  # different seed still succeeds


def test_pipeline_single_packet():
    result = run_pipeline(shared_path_instance(1, 13))
    rep = result.report
    assert rep.load == 1
    assert result.schedule == result.prestretch  # stretch is identity
    budget = result.assignment.tree.ladder.total_wait_budget()
    assert rep.makespan <= result.padded.length + budget
    # every crossing of the padded walk is conserved waiting plus motion
    padded_schedule = schedule_from_assignment(result.padded, result.assignment)
    assert padded_schedule.arrival(0) + padded_schedule.waits[0][-1] == result.padded.length + budget


def test_pipeline_plain_conserves_wait_budget():
    result = run_pipeline(shared_path_instance(4, 16), FixerConfig(delta=2))
    budget = result.assignment.tree.ladder.total_wait_budget()
    padded_schedule = schedule_from_assignment(result.padded, result.assignment)
    for packet in range(result.padded.padded.n_packets):
        assert sum(padded_schedule.waits[packet]) == budget


def test_pipeline_respects_counting_bound():
    for c, d in [(4, 16), (8, 24), (3, 100)]:
        result = run_pipeline(shared_path_instance(c, d), FixerConfig(delta=2))
        rep = result.report
        assert rep.load <= rep.counting_cap
        assert rep.residual_budget >= 1
        assert rep.gamma_final >= 1.0


def test_pipeline_gamma_tracks_slack_per_level():
    result = run_pipeline(shared_path_instance(4, 200))
    rep = result.report
    gamma = 1.0
    for lf in rep.levels:
        block_len = result.assignment.tree.ladder.levels[lf.level].block_len
        assert lf.slack == pytest.approx(lf.relax * block_len ** (-1 / 32))
        assert lf.gamma_before == pytest.approx(gamma)
        assert lf.gamma_after == pytest.approx(max(gamma, 1.0) + lf.slack)
        assert lf.achieved <= lf.gamma_after
        gamma = lf.gamma_after
    assert rep.gamma_final == pytest.approx(gamma)
    # D' = 256 fixes exactly the top level; the residual one has budget 2
    assert [lf.level for lf in rep.levels] == [0]
    assert rep.gamma_final == pytest.approx(1 + 256 ** (-1 / 32))
    assert rep.residual_budget == 2


def test_pipeline_shared_path_capacity_one():
    result = run_pipeline(shared_path_instance(4, 16), FixerConfig(delta=2))
    trace = simulate(result.padded.base, result.schedule, capacity=1)
    assert trace.max_load == 1
    # 4 packets through one path of 16 edges cannot beat C + D - 1
    assert trace.makespan >= 19
    assert result.report.makespan == trace.makespan


def test_pipeline_buffered_keeps_edge_waits_short():
    result = run_pipeline(
        shared_path_instance(4, 16), FixerConfig(variant="buffered", delta=2)
    )
    assert result.report.prestretch_max_edge_wait <= 1
    trace = simulate(result.padded.base, result.schedule, capacity=1)
    assert trace.max_load == 1


@pytest.mark.parametrize("variant", ["plain", "buffered"])
def test_a_run_builds_no_flat_edge_wait_view(monkeypatch, variant):
    # the pre-stretch maximum and a passing edge-wait check read the
    # per-packet table; only a failing check flattens it, to name an offender
    cases = [
        shared_path_instance(8, 32),
        generate_random_instance("0/random-mix/0", max_packets=24, max_length=64),
    ]
    config = FixerConfig(variant=variant, seed=0)

    def flattened(self):
        raise AssertionError("the flat edge-wait view was built")

    prestretch = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SimulationTrace, "edge_waits", property(flattened))
        for inst in cases:
            result = run_pipeline(inst, config)
            report = result.report
            slow = oracle.stepped_simulation(inst, result.prestretch, capacity=report.load)
            assert report.prestretch_max_edge_wait == slow.max_edge_wait
            prestretch.append((inst, result.prestretch, report))
    for inst, schedule, report in prestretch:
        trace = simulate(inst, schedule, capacity=report.load)
        assert check(trace, CheckRequirements(edge_wait_bound=report.prestretch_max_edge_wait)).ok
        assert "edge_waits" not in vars(trace)
    # one case waits inside a path, so the maximum is read from a non-empty table
    assert max(report.prestretch_max_edge_wait for _, _, report in prestretch) > 0


def test_pipeline_resamples_when_first_draw_collides():
    result = run_pipeline(shared_path_instance(21, 32), FixerConfig(delta=2, seed=1))
    assert sum(lf.resamples for lf in result.report.levels) > 0
    assert result.report.load <= result.report.counting_cap


@pytest.mark.parametrize("packets, seed", [(10, 22), (10, 30), (10, 51), (8, 9)])
def test_pipeline_keeps_an_attempt_whose_last_resample_succeeds(monkeypatch, packets, seed):
    # one resample per attempt: its only resample clears every bad cell, and
    # that outcome is the one reported
    _set_constants(monkeypatch, resample_budget=1, relax_ladder=(1.0,))
    result = run_pipeline(shared_path_instance(packets, 16), FixerConfig(delta=2, seed=seed))
    assert [(lf.restarts, lf.resamples) for lf in result.report.levels] == [(0, 1)]


def test_pipeline_greedy_paths():
    inst = shared_path_instance(6, 32)
    cfg = FixerConfig(delta=2, strategy="greedy")
    result = run_pipeline(inst, cfg)
    rep = result.report
    # the sweep fixes two levels, the second with one open below it
    assert [lf.level for lf in rep.levels] == [0, 1] and rep.residual_levels == (2,)
    assert all(lf.strategy == "greedy" for lf in rep.levels)
    assert all(lf.resamples == 0 for lf in rep.levels)
    assert rep.load <= rep.counting_cap
    assert simulate(inst, result.schedule, capacity=1).max_load == 1


@pytest.mark.parametrize("kind", ["plain", "buffered"])
@pytest.mark.parametrize("name", [
    *(f"random-{seed}" for seed in range(24)),
    "shared-4x16", "shared-21x32", "shared-30x32", "shared-64x256",
])
def test_certified_load_is_the_replayed_load(name, kind):
    # the load finalize certifies is exactly what the independent replay of
    # the pre-stretch schedule counts, not just a bound on it
    if name.startswith("random-"):
        inst = generate_random_instance(name, max_packets=24, max_length=64)
    else:
        inst = _workspace_instance(name)
    result = run_pipeline(inst, FixerConfig(variant=kind, seed=name))
    load = result.report.load
    assert load == simulate(inst, result.prestretch, capacity=load).max_load


def _clear_trees():
    dissect_plain.cache_clear()
    dissect_shifted.cache_clear()


def test_pipeline_builds_the_position_columns_once(monkeypatch):
    _clear_trees()
    calls = []
    contribution = delay_model._contribution

    def counted(tree, level, pos):
        calls.append((level, pos))
        return contribution(tree, level, pos)

    monkeypatch.setattr(delay_model, "_contribution", counted)
    for kind in ("plain", "buffered"):
        calls.clear()
        # plain fixes three levels and buffered two; every attempt, every
        # residual law and the final waits read the same columns
        result = run_pipeline(shared_path_instance(8, 300), FixerConfig(variant=kind, delta=2))
        assert result.report.levels
        n_levels, length = len(result.assignment.tree.ladder.levels), result.padded.length
        assert sorted(calls) == [(level, pos) for level in range(n_levels) for pos in range(1, length + 1)]
        # the columns live on the tree, which every run on its ladder shares
        calls.clear()
        again = run_pipeline(shared_path_instance(5, 400), FixerConfig(variant=kind, delta=2, seed=1))
        assert again.padded.length == result.padded.length
        assert again.assignment.tree is result.assignment.tree
        assert calls == []


@pytest.mark.parametrize("strategy", ["resample", "greedy"])
def test_a_second_run_on_a_tree_builds_no_columns_and_no_level_laws(monkeypatch, strategy):
    # the first run on a fresh tree builds its columns, with the reach and
    # the draw-1 columns, and its level laws; the next run on the tree
    # reads them and builds neither. Two position-only tables stay per
    # run: the position classes (`_position_classes`, one pass over the
    # columns, kept as the seam that turns twins off) and the greedy
    # sweep's blurs, which a workspace builds for its own level alone
    _clear_trees()
    builds = Counter()
    for module, name in (
        (delay_model, "position_columns"), (delay_model, "level_laws"),
        (delay_model, "residual_law"), (fixer_mod, "level_blurs"),
    ):
        builder = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, b=builder, n=name: builds.update([n]) or b(*a))
    for kind in ("plain", "buffered"):
        builds.clear()
        config = FixerConfig(variant=kind, delta=2, strategy=strategy)
        first = run_pipeline(shared_path_instance(8, 300), config)
        tree, fixed = first.assignment.tree, len(first.report.levels)
        assert fixed and builds["residual_law"] > 0
        assert {n: builds[n] for n in ("position_columns", "level_laws")} == {"position_columns": 1, "level_laws": 1}
        builds.clear()
        again = run_pipeline(shared_path_instance(5, 400), dataclasses.replace(config, seed=1))
        assert again.assignment.tree is tree and len(again.report.levels) == fixed
        # what the second run builds is the blurs alone: one law per class
        blurs = {"level_blurs": fixed, "residual_law": sum(len(set(tree.laws[level].alike)) for level in range(fixed))}
        assert builds == (Counter(blurs) if strategy == "greedy" else Counter())


def test_a_tree_is_keyed_on_its_levels_not_on_delta():
    # D' = 16 is one level at delta 4 and at delta 5
    inst = shared_path_instance(8, 16)
    for kind, dissect in (("plain", dissect_plain), ("buffered", dissect_shifted)):
        _clear_trees()
        first = run_pipeline(inst, FixerConfig(variant=kind, delta=4))
        second = run_pipeline(inst, FixerConfig(variant=kind, delta=5))
        assert second.assignment.tree is first.assignment.tree
        info = dissect.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert (first.report.delta, second.report.delta) == (4, 5)


def test_runs_on_one_ladder_share_one_read_only_tree():
    trees = {}
    for kind in ("plain", "buffered"):
        for delta in (2, 4):
            # both pad to D' = 32
            first = run_pipeline(shared_path_instance(8, 32), FixerConfig(variant=kind, delta=delta))
            second = run_pipeline(shared_path_instance(3, 20), FixerConfig(variant=kind, delta=delta, seed=5))
            assert second.assignment.tree is first.assignment.tree
            trees[kind, delta] = first.assignment.tree
    # another delta or variant is another tree
    assert len({id(tree) for tree in trees.values()}) == len(trees)
    for tree in trees.values():
        columns = tree.columns
        assert DelayAssignment(tree, 1).fixed_slots(0, 0) is columns.offsets
        assert columns.draw_one[-1] is columns.offsets
        shared = [*columns, *columns.blocks, *filter(None, columns.tables), *columns.draw_one]
        shared += [tree.blocks(level) for level in range(len(tree.ladder.levels))]
        # every level's laws, down to each position's law
        shared.append(tree.laws)
        for laws in tree.laws:
            shared += [*laws, *laws.delays, *laws.weighted]
            assert all(type(offsets) is frozenset for offsets in laws.offsets)
        for column in shared:
            assert type(column) is tuple
            with pytest.raises(TypeError):
                column[0] = column[0]
        # the columns and each level's laws are named tuples, immutable too
        for table in (columns, *tree.laws):
            assert isinstance(table, tuple)
            with pytest.raises(TypeError):
                table[0] = table[0]


def _tree_cases():
    cases = []
    for i in range(40):
        inst = generate_random_instance(f"shared-trees/{i}", max_packets=24, max_length=64)
        config = FixerConfig(
            variant=("plain", "buffered")[i % 2], delta=2 + i // 4 % 4,
            strategy="resample" if i % 4 < 2 else "greedy", seed=i,
        )
        cases.append((inst, config))
    return cases


def _outputs(inst, config):
    result = run_pipeline(inst, config)
    return encode(result.prestretch), encode(result.schedule), json.dumps(result.report.to_dict()), result.assignment.tree


def test_shared_trees_give_the_outputs_of_fresh_ones_in_any_order():
    cases = _tree_cases()
    cold = []
    for inst, config in cases:
        _clear_trees()
        cold.append(_outputs(inst, config)[:3])
    _clear_trees()
    warm = [_outputs(inst, config) for inst, config in reversed(cases)][::-1]
    assert [w[:3] for w in warm] == cold
    # no run wrote to a tree it shared: each equals one built afresh
    for tree in {id(w[3]): w[3] for w in warm}.values():
        fresh = type(tree)(tree.ladder)
        assert tree.columns == fresh.columns
        assert [tree.blocks(level) for level in range(len(tree.ladder.levels))] == [
            fresh.blocks(level) for level in range(len(fresh.ladder.levels))
        ]


# each config comes with the class constants it patches
@pytest.mark.parametrize("inst, config, check", [
    # plain at depth 2 fixes two levels
    (shared_path_instance(8, 32), (FixerConfig(delta=2, seed=0), {}),
     lambda rep: [lf.level for lf in rep.levels] == [0, 1]),
    # an attempt of one resample fails level 0 at relax 1
    (shared_path_instance(30, 32), (FixerConfig(seed=0), {"resample_budget": 1}),
     lambda rep: rep.relax_max > 1),
    # the greedy sweep fixes two levels and leaves the third open
    (shared_path_instance(8, 32), (FixerConfig(delta=2, strategy="greedy"), {}),
     lambda rep: len(rep.levels) == 2 and rep.residual_levels == (2,)),
])
def test_pipeline_indexes_the_crossings_once(monkeypatch, inst, config, check):
    config, constants = config
    _set_constants(monkeypatch, **constants)
    builds = []

    class Counted(fixer_mod._CrossingIndex):
        def __init__(self, *args):
            builds.append(args)
            super().__init__(*args)

    monkeypatch.setattr(fixer_mod, "_CrossingIndex", Counted)
    workspaces = []
    workspace = fixer_mod._LevelWorkspace
    monkeypatch.setattr(fixer_mod, "_LevelWorkspace", lambda *a: workspaces.append(a) or workspace(*a))
    result = run_pipeline(inst, config)
    assert check(result.report)
    assert len(builds) == 1
    assert len(workspaces) > 1
    assert all(isinstance(a[0], Counted) for a in workspaces)
    # a fresh index for every workspace, serving no level past its own, so
    # with twins of its own, fixes the same draws
    builds.clear()
    padded = pad(inst)
    monkeypatch.setattr(fixer_mod, "_LevelWorkspace",
                        lambda _, assignment, level: workspace(
                            Counted(padded, assignment, level + 1), assignment, level))
    alone = run_pipeline(inst, config)
    assert len(builds) == 1 + len(workspaces)
    assert (alone.schedule, alone.report) == (result.schedule, result.report)


def _rows_kept(monkeypatch, inst, config):
    """(rows, shared edges) of the one index the run builds."""
    kept = []

    class Recorded(fixer_mod._CrossingIndex):
        def __init__(self, *args):
            super().__init__(*args)
            kept.append((len(self.edges), len(self.row_of)))

    monkeypatch.setattr(fixer_mod, "_CrossingIndex", Recorded)
    run_pipeline(inst, config)
    [rows] = kept
    return rows


@pytest.mark.parametrize("inst, variant, rows", [
    # one path: twins are the edges of a block at the deepest level fixed,
    # and under the shifted tree also of a duty table at every level
    (shared_path_instance(30, 32), "plain", (1, 32)),
    (shared_path_instance(64, 1024), "plain", (32, 1024)),
    (shared_path_instance(64, 1024), "buffered", (19, 1024)),
    (shared_path_instance(16, 4096), "plain", (64, 4096)),
    (generate_random_instance("twins/6", max_packets=24, max_length=64), "plain", (7, 10)),
    # no two of these edges carry the same crossings
    (generate_random_instance("twins/28", max_packets=24, max_length=64), "plain", (60, 60)),
])
def test_twin_edges_share_one_row(monkeypatch, inst, variant, rows):
    assert _rows_kept(monkeypatch, inst, FixerConfig(variant=variant)) == rows


def test_pipeline_builds_no_index_when_nothing_is_fixed(monkeypatch):
    def refuse(*args):
        raise AssertionError("built an index that no level reads")

    monkeypatch.setattr(fixer_mod, "_CrossingIndex", refuse)
    for strategy in ("resample", "greedy"):
        for variant in ("plain", "buffered"):
            result = run_pipeline(shared_path_instance(4, 16), FixerConfig(variant=variant, strategy=strategy))
            assert result.report.levels == [] and result.report.load == 4  # depth 0
        # a buffered ladder of depth 1 fixes no level either
        result = run_pipeline(shared_path_instance(4, 32), FixerConfig(variant="buffered", strategy=strategy))
        assert result.report.levels == [] and result.report.residual_levels == (0, 1)


@pytest.mark.parametrize("kind", ["plain", "buffered"])
@pytest.mark.parametrize("strategies", [
    {}, {"strategy": "greedy"},
])
def test_pipeline_builds_no_dummy_chain(monkeypatch, kind, strategies):
    ladder = shared_path_instance(6, 140)  # D' 256: both variants fix levels
    ladder.paths = [path[:140 - 20 * i] for i, path in enumerate(ladder.paths)]
    instances = [_workspace_instance("accept2/8"), ladder]
    for inst in instances:
        assert len({len(p) for p in inst.paths}) > 1  # unequal lengths: dummy positions

    def refuse(*args):
        raise AssertionError("the pipeline built the explicit dummy chain or the padded schedule")

    with monkeypatch.context() as patched:
        patched.setattr(instance_mod, "_extended", refuse)
        patched.setattr(fixer_mod, "schedule_from_assignment", refuse)
        patched.setattr(fixer_mod, "unpad_schedule", refuse)
        results = [run_pipeline(inst, FixerConfig(variant=kind, delta=2, seed=0, **strategies))
                   for inst in instances]
    assert results[1].report.levels
    calls = []
    extended = instance_mod._extended
    monkeypatch.setattr(instance_mod, "_extended", lambda *a: calls.append(a) or extended(*a))
    padded = results[0].padded
    explicit, dummies = padded.padded, padded.dummy_edge_ids
    assert padded.padded is explicit and padded.dummy_edge_ids is dummies
    assert len(calls) == 1
    assert len(dummies) == sum(padded.length - m for m in padded.original_lengths) > 0


def _virtual_equals_explicit(inst, config):
    virtual = run_pipeline(inst, config)
    explicit = run_pipeline(pad(inst).padded, config)
    assert explicit.padded.length == virtual.padded.length
    assert (explicit.report.load, explicit.report.levels) == (virtual.report.load, virtual.report.levels)
    for packet, path in enumerate(inst.paths):
        assert (virtual.schedule.crossing_slots(packet)
                == explicit.schedule.crossing_slots(packet)[:len(path)])


def test_virtual_padding_equals_explicit_padding_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        seed=st.integers(0, 10**6),
        kind=st.sampled_from(["plain", "buffered"]),
        greedy=st.booleans(),
    )
    def agree(seed, kind, greedy):
        inst = generate_random_instance(seed, max_packets=24, max_length=64)
        _virtual_equals_explicit(inst, FixerConfig(variant=kind, seed=seed, strategy="greedy" if greedy else "resample"))

    agree()
    # the greedy sweep reads the dummy positions' largest counts here: packet
    # 1 crosses one edge of the shared path, and 127 of its 128 positions
    # are dummies
    short = shared_path_instance(2, 100)
    short.paths[1] = short.paths[1][:1]
    _virtual_equals_explicit(short, FixerConfig(variant="buffered", delta=2, strategy="greedy"))


def test_pipeline_reports_exhausted_budgets(monkeypatch):
    # one attempt of one resample, at relax 1 only, does not pin level 0 of
    # sixteen packets on one path
    _set_constants(monkeypatch, resample_budget=1, relax_ladder=(1.0,))
    with pytest.raises(FixerError, match="relax factors exhausted"):
        run_pipeline(shared_path_instance(16, 16), FixerConfig(delta=2, seed=0))


@pytest.mark.parametrize("inst, budget", [
    (shared_path_instance(30, 32), 8),
    (lowerbound.generate(24, seed=0).instance, 16),
], ids=["shared-30x32", "gadget-24"])
def test_a_failing_attempt_stops_on_its_budget(monkeypatch, inst, budget):
    # level 0 misses relax 1 in `budget` resamples and meets relax 2
    _set_constants(monkeypatch, resample_budget=budget)
    scans = Counter()
    first_bad_cell = _LevelWorkspace.first_bad_cell

    def counted(ws, limit):
        scans[ws] += 1
        return first_bad_cell(ws, limit)

    fixes = []
    resample_fix = fixer_mod._resample_fix

    def recorded_fix(ws, limit, config, seed_tag):
        outcome = resample_fix(ws, limit, config, seed_tag)
        fixes.append((seed_tag, scans[ws], outcome[1] > limit, outcome[2]))
        return outcome

    monkeypatch.setattr(_LevelWorkspace, "first_bad_cell", counted)
    monkeypatch.setattr(fixer_mod, "_resample_fix", recorded_fix)
    result = run_pipeline(inst, FixerConfig(seed=0))
    [fix] = result.report.levels
    # an attempt scans once per resample and once more; the failed one then gives up
    assert fixes == [
        ("fix/level0/relax1.0", budget + 1, True, budget),
        ("fix/level0/relax2.0", fix.resamples + 1, False, fix.resamples),
    ]
    # and leaves no trace: starting the ladder at relax 2 gives the same run
    _set_constants(monkeypatch, relax_ladder=(2.0, 4.0, 8.0))
    again = run_pipeline(inst, FixerConfig(seed=0))
    assert (again.schedule, again.report) == (result.schedule, result.report)


def test_report_dict_is_json_ready():
    rep = run_pipeline(shared_path_instance(2, 8), FixerConfig(delta=2)).report
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["variant"] == "plain"
    assert doc["load"] == rep.load
    assert doc["gamma_final"] == pytest.approx(rep.gamma_final)
    assert isinstance(doc["levels"], list)


# --- building waits from assignments -----------------------------------------

def test_schedule_from_assignment_needs_every_level_fixed():
    padded = pad(shared_path_instance(2, 16))
    tree = dissect_plain(build_ladder(padded.length, 2))
    assignment = DelayAssignment(tree, 2)
    assignment.set_level(0, [[5], [11]])
    with pytest.raises(delay_model.AssignmentError, match="assignment incomplete"):
        schedule_from_assignment(padded, assignment)


def test_schedule_matches_crossing_times():
    padded = pad(shared_path_instance(2, 16))
    tree = dissect_plain(build_ladder(padded.length, 2))
    assignment = DelayAssignment(tree, 2)
    assignment.set_level(0, [[5], [11]])
    assignment.fill_remaining(2)
    schedule = schedule_from_assignment(padded, assignment)
    for packet in range(2):
        slots = schedule.crossing_slots(packet)
        for pos in range(1, padded.length + 1):
            assert slots[pos - 1] == crossing_time(assignment, packet, pos)


def test_schedule_matches_crossing_times_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        seed=st.integers(0, 10**6),
        kind=st.sampled_from(["plain", "buffered"]),
        delta=st.integers(2, 5),
        draws_seed=st.integers(0, 10**6),
    )
    def agree(seed, kind, delta, draws_seed):
        padded = pad(generate_random_instance(seed, max_packets=6, max_length=64))
        ladder = build_ladder(padded.length, min(delta, padded.length))
        tree = dissect_plain(ladder) if kind == "plain" else dissect_shifted(ladder)
        assignment = DelayAssignment(tree, padded.padded.n_packets)
        randomize_remaining(assignment, random.Random(draws_seed))
        schedule = schedule_from_assignment(padded, assignment)
        for packet in range(padded.padded.n_packets):
            # `crossing_time` reads the tree's columns, as the schedule does;
            # the oracle's walker re-derives the slots from the waiting rules
            walked = oracle._walk_slots(oracle._policy_waits(tree, assignment.values[packet]), padded.length)
            assert schedule.crossing_slots(packet) == walked == [
                crossing_time(assignment, packet, pos) for pos in range(1, padded.length + 1)
            ]

    agree()


def test_unpad_drops_dummy_motion_only():
    # finalize realizes the real positions only; cutting the padded schedule
    # at each real path's end must give the same waits
    for kind in ("plain", "buffered"):
        for index, inst in enumerate(_acceptance_small_suite()):
            result = run_pipeline(inst, FixerConfig(variant=kind, seed=f"accept2/{index}"))
            where = (kind, index)
            padded_schedule = schedule_from_assignment(result.padded, result.assignment)
            assert result.prestretch == unpad_schedule(result.padded, padded_schedule), where
            if kind == "plain":
                budget = result.assignment.tree.ladder.total_wait_budget()
                for packet in range(inst.n_packets):
                    assert sum(padded_schedule.waits[packet]) == budget, (where, packet)
            trace = simulate(inst, result.prestretch, capacity=result.report.load)
            assert trace.makespan == result.report.makespan_prestretch, where


def test_pipeline_refuses_a_plain_schedule_that_breaks_its_budget(monkeypatch):
    inst = shared_path_instance(3, 13)  # pads to 16: the last padded slot is a dummy's
    fixed_slots = DelayAssignment.fixed_slots

    def late(self, packet, levels, base=None, positions=None):
        slots = fixed_slots(self, packet, levels, base, positions)
        if base is not None:  # finalize's slots, over its column: one more slot of waiting
            slots = [*slots[:-1], slots[-1] + 1]
        return slots

    monkeypatch.setattr(DelayAssignment, "fixed_slots", late)
    with pytest.raises(FixerError, match="waiting") as excinfo:
        run_pipeline(inst, FixerConfig(delta=2))
    assert excinfo.value.report.variant == "plain"
