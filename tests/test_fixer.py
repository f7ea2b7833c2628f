"""Level fixing, finalization, stretching, and the end-to-end pipeline."""
import dataclasses
import json
import random
import sys
import weakref
from collections import Counter
from math import floor

import pytest

from cd_router import delay_model
from cd_router import fixer as fixer_mod
from cd_router import instance as instance_mod
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
from cd_router.simulator import simulate

from conftest import randomize_remaining


# --- config ------------------------------------------------------------------

def test_slack_scales_with_block_length():
    plain = FixerConfig(variant="plain")
    assert plain.slack(256, 1.0) == pytest.approx(256 ** (-1 / 32))
    assert plain.slack(256, 4.0) == pytest.approx(4 * 256 ** (-1 / 32))
    buffered = FixerConfig(variant="buffered")
    assert buffered.slack(256, 2.0) == pytest.approx(2 * 256 ** (-1 / 64))


def test_config_sets_five_fields_and_reads_the_loop_bounds():
    assert [f.name for f in dataclasses.fields(FixerConfig)] == [
        "variant", "delta", "strategy", "finalize_strategy", "seed",
    ]
    for name in ("resample_budget", "restart_budget", "relax_ladder", "slack_exponent"):
        with pytest.raises(TypeError):
            FixerConfig(**{name: 1})
    config = FixerConfig(variant="buffered")
    assert (config.resample_budget, config.restart_budget, config.relax_ladder) == (10_000, 3, (1, 2, 4, 8))


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
    with pytest.raises(ValueError, match="unknown finalize strategy 'zeros'"):
        run_pipeline(shared_path_instance(1, 2), FixerConfig(finalize_strategy="zeros"))
    for delta in (1, 0, -3):
        with pytest.raises(ValueError, match="delta"):
            run_pipeline(shared_path_instance(1, 2), FixerConfig(delta=delta))


# --- level workspace ---------------------------------------------------------

def _workspace_instance(name: str):
    if name.startswith("accept2/"):
        # acceptance small suite: dummy edges, and shared ids e10 < e13 < e2
        return generate_random_instance(name, max_packets=6, max_length=28, n_nodes=12)
    c, d = name.removeprefix("shared-").split("x")
    return shared_path_instance(int(c), int(d))


@pytest.mark.parametrize("kind", ["plain", "buffered"])
@pytest.mark.parametrize("name", ["shared-30x32", "accept2/8", "shared-1x64"])
def test_workspace_rows_match_a_table_rebuilt_from_the_draws(monkeypatch, name, kind):
    _set_constants(monkeypatch, resample_budget=300)
    padded = pad(_workspace_instance(name))
    ladder = build_ladder(padded.length, 2)
    tree = dissect_plain(ladder) if kind == "plain" else dissect_shifted(ladder)
    uses = Counter(eid for path in padded.padded.paths for eid in path)
    shared = sorted(eid for eid, n in uses.items() if n >= 2)
    for seed in range(3):
        for strategy in ("resample", "greedy"):
            assignment = DelayAssignment(tree, padded.padded.n_packets)
            index = _CrossingIndex(padded, assignment)
            config = FixerConfig(variant=kind, seed=seed)
            # every level, built on the draws fixed at the levels before it
            for level in range(len(ladder.levels)):
                ws = _LevelWorkspace(index, assignment, level)
                # one row per edge that two or more padded paths use, in edge id order
                assert len(ws.y) == len(shared)
                assert ws.index.edges == shared
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
                    draws, peak, _, _ = _resample_fix(ws, limit, config, f"workspace/{seed}/{level}")
                else:
                    draws, peak = _greedy_fix(ws)
                assignment.set_level(level, draws)
                table = {
                    key: p * ws.scale for key, p in expected_load(padded, assignment).items()
                }
                rebuilt = [
                    [table.get((edge, lo + index), 0) for index in range(len(row))]
                    for edge, lo, row in zip(ws.index.edges, ws.index.lo, ws.y)
                ]
                assert ws.y == rebuilt, level
                # every shared-edge cell of the table lies inside its row
                assert sum(map(sum, ws.y)) == sum(
                    v for (edge, _), v in table.items() if uses[edge] >= 2
                )
                assert ws.max_y() == max(table.values())
                if peak > limit:  # every restart failed: the least maximum one reached
                    assert strategy == "resample" and peak <= ws.max_y()
                else:
                    assert peak == ws.max_y()
                for lim in sorted({limit, ws.scale} | {v - 1 for v in table.values() if v > ws.scale}):
                    cell, top = ws.first_bad_cell(lim)
                    found = None if cell is None else (ws.index.edges[cell[0]], ws.index.lo[cell[0]] + cell[1])
                    assert found == min((key for key, v in table.items() if v > lim), default=None)
                    # with no bad cell, the one scan has read max Y
                    assert cell is not None or top == ws.max_y()


def _level_workspace_args(name: str, kind: str, rng: random.Random):
    """`_LevelWorkspace` arguments for each level at delta 2, the levels before it fixed at random."""
    padded = pad(_workspace_instance(name))
    tree = (dissect_plain if kind == "plain" else dissect_shifted)(build_ladder(padded.length, 2))
    assignment = DelayAssignment(tree, padded.padded.n_packets)
    index = _CrossingIndex(padded, assignment)
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
def test_count_units_and_budget_units_hold_one_table(name, kind):
    # resampling counts over the deeper budgets, the greedy sweep over this
    # level's budget too; every budget is a power of two, so the two agree
    # on every bad cell and on the maximum over `scale`
    rng = random.Random(f"units/{name}/{kind}")
    levels = []
    for args in _level_workspace_args(name, kind, rng):
        counts, blurred = _LevelWorkspace(*args, False), _LevelWorkspace(*args, True)
        budget = counts.budget
        levels.append(counts.level)
        assert (counts.weight, blurred.weight) == (1, budget)
        assert blurred.scale == budget * counts.scale
        n_vars = len(counts.by_var)
        draws = [rng.randint(1, budget) for _ in range(n_vars)]
        counts.fill(draws)
        blurred.fill(draws)
        for _ in range(4):
            for _ in range(rng.randint(1, 2 * n_vars)):
                var, new = rng.randrange(n_vars), rng.randint(1, budget)
                counts.move(var, draws[var], new)
                blurred.move(var, draws[var], new)
                draws[var] = new
            assert [[budget * v for v in row] for row in counts.y] == blurred.y
            assert counts.max_y() / counts.scale == blurred.max_y() / blurred.scale
            top = blurred.max_y() / blurred.scale
            cells = {v / blurred.scale for row in blurred.y for v in row}
            targets = [rng.uniform(0, 1.25 * top) for _ in range(20)] + rng.sample(sorted(cells), min(len(cells), 10))
            bad = 0
            for target in targets:
                cell, peak = counts.first_bad_cell(floor(target * counts.scale))
                assert (cell, budget * peak) == blurred.first_bad_cell(floor(target * blurred.scale)), target
                bad += cell is not None
            assert 0 < bad < len(targets)
        # a count-unit workspace holds every crossing at a draw
        with pytest.raises(ValueError, match="blurred"):
            counts.spread(0, 0, +1)
        with pytest.raises(ValueError, match="blurred"):
            _greedy_fix(_LevelWorkspace(*args, False))
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
        for var in range(len(ws.by_var)):
            ws.y = [row[:] for row in y]
            ws.spread(var, draws[var], -1)
            for r, i in cells:
                if ws.y[r][i] != y[r][i]:
                    expected[r, i].append(var)
        ws.y = y
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


def _private_ceiling(ws: _LevelWorkspace, tails, var: int) -> int:
    """The largest deeper-law count over the variable's unshared positions.

    `tails[p]` is position p's deeper law. A variable's unshared positions
    are its block's positions that are not items, dummy ones included.
    """
    packet, block = divmod(var, ws.n_blocks)
    mask = ws.index.shared[packet]
    blocks = ws.tree.columns.blocks[ws.level]
    return max(
        (
            max(c for _, c in tails[p]) for p in range(ws.index.length)
            if blocks[p] == block and not (p < len(mask) and mask[p])
        ),
        default=0,
    )


def _private_peak(ws: _LevelWorkspace, tails, var: int, draw: int) -> int:
    """`peak` by the definition, with the variable's private ceiling."""
    table = ws.tree.columns.tables[ws.level]
    peak = ws.budget * _private_ceiling(ws, tails, var)
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
    levels, differs = [], 0
    for args in _level_workspace_args(name, kind, rng):
        ws = _LevelWorkspace(*args)
        levels.append(ws.level)
        tails = [delay_model.residual_law(ws.tree, ws.level + 1, p + 1) for p in range(ws.index.length)]
        n_vars = len(ws.by_var)
        for var in range(n_vars):
            ws.spread(var, 0, +1)
        # the greedy sweep's own steps, every draw of every variable probed
        for var in range(n_vars):
            ws.spread(var, 0, -1)
            peaks = [ws.peak(var, draw) for draw in range(1, ws.budget + 1)]
            assert peaks == [_private_peak(ws, tails, var, draw) for draw in range(1, ws.budget + 1)]
            differs += ws.ceiling[var % ws.n_blocks] != _private_ceiling(ws, tails, var)
            ws.spread(var, 1 + peaks.index(min(peaks)), +1)
    assert levels == list(range(len(levels))) and len(levels) >= 2
    assert differs  # some variable's block ceiling exceeds its private one


@pytest.mark.parametrize("strategies, blurred", [
    (("resample", "ones"), False),
    (("greedy", "ones"), True),
    (("resample", "greedy"), True),
])
def test_only_a_greedy_sweep_computes_a_blur(monkeypatch, strategies, blurred):
    # a workspace reads the deeper law for every level; its own level's
    # residual law, the blur, only for the greedy sweep
    calls = []
    law = fixer_mod.residual_law

    def spy(tree, from_level, pos):
        calls.append(from_level - sys._getframe(1).f_locals["self"].level)
        return law(tree, from_level, pos)

    monkeypatch.setattr(fixer_mod, "residual_law", spy)
    strategy, finalize = strategies
    # a ladder of three levels, of which a buffered run fixes level 0
    config = FixerConfig(variant="buffered", delta=2, strategy=strategy, finalize_strategy=finalize)
    run_pipeline(shared_path_instance(8, 32), config)
    assert 1 in calls
    assert set(calls) == ({0, 1} if blurred else {1})


# --- stretching --------------------------------------------------------------

def test_stretch_orders_sharers_within_their_window():
    # both packets cross the one shared edge at slot 5; at load 2 the slot
    # expands to the window [9, 10] and packet order breaks the tie
    inst = shared_path_instance(2, 1)
    schedule = Schedule(waits=[[4, 0], [4, 0]])
    assert schedule.crossing_slots(0) == [5]
    stretched = stretch(schedule, 2, realized_loads(inst, schedule))
    assert stretched.crossing_slots(0) == [9]
    assert stretched.crossing_slots(1) == [10]
    trace = simulate(inst, stretched, capacity=1)
    assert trace.max_load == 1


def test_stretch_is_identity_at_unit_load():
    inst = shared_path_instance(2, 3)
    schedule = Schedule(waits=[[0, 1, 0, 0], [2, 0, 0, 0]])
    assert stretch(schedule, 1, realized_loads(inst, schedule)) is schedule


def test_stretch_preserves_order_and_feasibility():
    inst = shared_path_instance(3, 4)
    schedule = Schedule(waits=[[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [2, 0, 0, 0, 0]])
    base = simulate(inst, schedule, capacity=3)
    stretched = stretch(schedule, base.max_load, realized_loads(inst, schedule))
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
        ranks = realized_loads(inst, result.prestretch)
        assert result.schedule == stretch(result.prestretch, load, ranks), index


def test_pipeline_ranks_the_crossings_once(monkeypatch):
    calls = []
    rank = fixer_mod.realized_loads
    monkeypatch.setattr(fixer_mod, "realized_loads", lambda inst, sched: calls.append(inst) or rank(inst, sched))
    result = run_pipeline(shared_path_instance(8, 32), FixerConfig(seed=0))
    assert result.report.load == 2  # so stretch has work to do
    assert len(calls) == 1


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


def test_a_stretched_run_replays_twice(monkeypatch):
    calls = _count_replays(monkeypatch)
    result = run_pipeline(shared_path_instance(8, 32), FixerConfig(seed=0))
    assert result.report.load == 2
    assert calls == [result.prestretch, result.schedule]


def test_the_capacity_1_check_reads_the_reused_replay(monkeypatch):
    # an unstretched load-2 schedule must still fail the final check
    monkeypatch.setattr(fixer_mod, "stretch", lambda schedule, load, ranks: schedule)
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
        lambda inst, sched: [[shift(r) for r in ranks] for ranks in rank(inst, sched)],
    )


def test_pipeline_refuses_a_load_above_the_counting_bound(monkeypatch):
    _misranked(monkeypatch, lambda r: r + 10)
    with pytest.raises(FixerError, match="counting bound violated: load 12 > ") as caught:
        run_pipeline(shared_path_instance(8, 32), FixerConfig(seed=0))
    assert caught.value.report.load == 12 > caught.value.report.counting_cap


def test_pipeline_refuses_a_replay_above_the_certified_load(monkeypatch):
    # the true load is 2; ranks of 0 certify 1, and the replay finds 2
    _misranked(monkeypatch, lambda r: 0)
    with pytest.raises(FixerError, match="pre-stretch load exceeds the certified bound") as caught:
        run_pipeline(shared_path_instance(8, 32), FixerConfig(seed=0))
    assert caught.value.report.load == 1


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


def test_pipeline_resamples_when_first_draw_collides():
    result = run_pipeline(shared_path_instance(21, 32), FixerConfig(delta=2, seed=1))
    assert sum(lf.resamples for lf in result.report.levels) > 0
    assert result.report.load <= result.report.counting_cap


@pytest.mark.parametrize("packets, seed", [(10, 22), (10, 30), (10, 51), (8, 9)])
def test_pipeline_keeps_a_restart_whose_last_resample_succeeds(monkeypatch, packets, seed):
    # one resample per restart: restart 0's only resample clears every bad
    # cell, and that outcome is the one reported
    _set_constants(monkeypatch, resample_budget=1, restart_budget=2, relax_ladder=(1.0,))
    result = run_pipeline(shared_path_instance(packets, 16), FixerConfig(delta=2, seed=seed))
    assert [(lf.restarts, lf.resamples) for lf in result.report.levels] == [(0, 1)]


def test_pipeline_greedy_paths():
    inst = shared_path_instance(6, 16)
    cfg = FixerConfig(delta=2, strategy="greedy", finalize_strategy="greedy")
    result = run_pipeline(inst, cfg)
    rep = result.report
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
        offsets, blocks, tables = tree.columns
        assert DelayAssignment(tree, 1).fixed_slots(0, 0) is offsets
        shared = [offsets, blocks, tables, *blocks, *filter(None, tables)]
        shared += [tree.blocks(level) for level in range(len(tree.ladder.levels))]
        for column in shared:
            assert type(column) is tuple
            with pytest.raises(TypeError):
                column[0] = column[0]


def _tree_cases():
    cases = []
    for i in range(40):
        inst = generate_random_instance(f"shared-trees/{i}", max_packets=24, max_length=64)
        strategy, finalize = ("resample", "ones") if i % 4 < 2 else ("greedy", "greedy")
        config = FixerConfig(
            variant=("plain", "buffered")[i % 2], delta=2 + i // 4 % 4,
            strategy=strategy, finalize_strategy=finalize, seed=i,
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
    # one resample and one restart fail level 0 at relax 1
    (shared_path_instance(30, 32), (FixerConfig(seed=0), {"resample_budget": 1, "restart_budget": 1}),
     lambda rep: rep.relax_max > 1),
    # the greedy sweep fixes two levels and finalizes the third
    (shared_path_instance(8, 32), (FixerConfig(delta=2, strategy="greedy", finalize_strategy="greedy"), {}),
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
    # a fresh index for every workspace fixes the same draws
    builds.clear()
    padded = pad(inst)
    monkeypatch.setattr(fixer_mod, "_LevelWorkspace",
                        lambda _, assignment, level, blurred: workspace(
                            Counted(padded, assignment), assignment, level, blurred))
    alone = run_pipeline(inst, config)
    assert len(builds) == 1 + len(workspaces)
    assert (alone.schedule, alone.report) == (result.schedule, result.report)


def test_a_run_holds_one_replay_trace_at_a_time(monkeypatch):
    # the pre-stretch trace is dropped before the capacity-1 replay starts
    traces, dead = [], []
    replay = fixer_mod.simulate

    def spy(*args, **kwargs):
        dead.append([ref() is None for ref in traces])
        trace = replay(*args, **kwargs)
        traces.append(weakref.ref(trace))
        return trace

    monkeypatch.setattr(fixer_mod, "simulate", spy)
    result = run_pipeline(shared_path_instance(30, 32))
    assert result.report.load == 2
    assert dead == [[], [True]]


def test_pipeline_builds_no_index_when_nothing_is_fixed(monkeypatch):
    def refuse(*args):
        raise AssertionError("built an index that no level reads")

    monkeypatch.setattr(fixer_mod, "_CrossingIndex", refuse)
    result = run_pipeline(shared_path_instance(4, 16))  # depth 0
    assert result.report.levels == [] and result.report.load == 4


@pytest.mark.parametrize("kind", ["plain", "buffered"])
@pytest.mark.parametrize("strategies", [
    {}, {"strategy": "greedy", "finalize_strategy": "greedy"},
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


def test_virtual_padding_equals_explicit_padding_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        seed=st.integers(0, 10**6),
        kind=st.sampled_from(["plain", "buffered"]),
        greedy=st.booleans(),
    )
    # the greedy sweep reads the dummy positions' largest counts here
    @hypothesis.example(seed=16, kind="buffered", greedy=True)
    def agree(seed, kind, greedy):
        inst = generate_random_instance(seed, max_packets=24, max_length=64)
        strategies = {"strategy": "greedy", "finalize_strategy": "greedy"} if greedy else {}
        config = FixerConfig(variant=kind, seed=seed, **strategies)
        virtual = run_pipeline(inst, config)
        explicit = run_pipeline(pad(inst).padded, config)
        assert explicit.padded.length == virtual.padded.length
        assert (explicit.report.load, explicit.report.levels) == (virtual.report.load, virtual.report.levels)
        for packet, path in enumerate(inst.paths):
            assert (virtual.schedule.crossing_slots(packet)
                    == explicit.schedule.crossing_slots(packet)[:len(path)])

    agree()


def test_pipeline_reports_exhausted_budgets(monkeypatch):
    # one restart of one resample, at relax 1 only, does not pin level 0 of
    # sixteen packets on one path
    _set_constants(monkeypatch, resample_budget=1, restart_budget=1, relax_ladder=(1.0,))
    with pytest.raises(FixerError, match="relax factors exhausted"):
        run_pipeline(shared_path_instance(16, 16), FixerConfig(delta=2, seed=0))


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

    def late(self, packet, levels):
        slots = fixed_slots(self, packet, levels)
        if levels == self.n_levels:  # the realized slots: one more slot of waiting
            slots = [*slots[:-1], slots[-1] + 1]
        return slots

    monkeypatch.setattr(DelayAssignment, "fixed_slots", late)
    with pytest.raises(FixerError, match="waiting") as excinfo:
        run_pipeline(inst, FixerConfig(delta=2))
    assert excinfo.value.report.variant == "plain"
