"""Level fixing, finalization, stretching, and the end-to-end pipeline."""
import json

import pytest

from cd_router.delay_model import DelayAssignment, crossing_time
from cd_router.dissection import build_ladder, dissect_plain
from cd_router.fixer import (
    FixerConfig,
    FixerError,
    run_pipeline,
    schedule_from_assignment,
    stretch,
    unpad_schedule,
)
from cd_router.instance import generate_random_instance, pad, shared_path_instance, stats
from cd_router.schedule import Schedule, encode
from cd_router.simulator import simulate


# --- config ------------------------------------------------------------------

def test_slack_scales_with_block_length():
    plain = FixerConfig(variant="plain")
    assert plain.slack(256, 1.0) == pytest.approx(256 ** (-1 / 32))
    assert plain.slack(256, 4.0) == pytest.approx(4 * 256 ** (-1 / 32))
    buffered = FixerConfig(variant="buffered")
    assert buffered.slack(256, 2.0) == pytest.approx(2 * 256 ** (-1 / 64))
    override = FixerConfig(variant="plain", slack_exponent=0.5)
    assert override.slack(16, 1.0) == pytest.approx(0.25)


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="variant"):
        run_pipeline(shared_path_instance(1, 2), FixerConfig(variant="diagonal"))
    with pytest.raises(ValueError, match="strategy"):
        run_pipeline(shared_path_instance(1, 2), FixerConfig(strategy="anneal"))
    with pytest.raises(ValueError, match="relax"):
        run_pipeline(shared_path_instance(1, 2), FixerConfig(relax_ladder=()))
    for delta in (1, 0, -3):
        with pytest.raises(ValueError, match="delta"):
            run_pipeline(shared_path_instance(1, 2), FixerConfig(delta=delta))


# --- stretching --------------------------------------------------------------

def test_stretch_orders_sharers_within_their_window():
    # both packets cross the one shared edge at slot 5; at load 2 the slot
    # expands to the window [9, 10] and packet order breaks the tie
    inst = shared_path_instance(2, 1)
    schedule = Schedule(waits=[[4, 0], [4, 0]])
    assert schedule.crossing_slots(0) == [5]
    stretched = stretch(schedule, 2, inst)
    assert stretched.crossing_slots(0) == [9]
    assert stretched.crossing_slots(1) == [10]
    trace = simulate(inst, stretched, capacity=1)
    assert trace.max_load == 1


def test_stretch_is_identity_at_unit_load():
    inst = shared_path_instance(2, 3)
    schedule = Schedule(waits=[[0, 1, 0, 0], [2, 0, 0, 0]])
    assert stretch(schedule, 1, inst) is schedule


def test_stretch_preserves_order_and_feasibility():
    inst = shared_path_instance(3, 4)
    schedule = Schedule(waits=[[0, 0, 0, 0, 0], [1, 0, 0, 0, 0], [2, 0, 0, 0, 0]])
    base = simulate(inst, schedule, capacity=3)
    stretched = stretch(schedule, base.max_load, inst)
    trace = simulate(inst, stretched, capacity=1)
    assert trace.max_load == 1
    assert trace.makespan <= base.max_load * base.makespan


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
    budget = result.tree.ladder.total_wait_budget()
    assert rep.makespan <= result.padded.length + budget
    # every crossing of the padded walk is conserved waiting plus motion
    assert result.padded_schedule.arrival(0) + result.padded_schedule.waits[0][-1] \
        == result.padded.length + budget


def test_pipeline_plain_conserves_wait_budget():
    result = run_pipeline(shared_path_instance(4, 16), FixerConfig(delta=2))
    budget = result.tree.ladder.total_wait_budget()
    for packet in range(result.padded.padded.n_packets):
        assert result.padded_schedule.total_waiting(packet) == budget


def test_pipeline_respects_counting_bound():
    for c, d in [(4, 16), (8, 24), (3, 100)]:
        result = run_pipeline(shared_path_instance(c, d), FixerConfig(delta=2))
        rep = result.report
        assert rep.load <= rep.counting_cap + 1e-9
        assert rep.residual_budget >= 1
        assert rep.gamma_final >= 1.0


def test_pipeline_gamma_tracks_slack_per_level():
    result = run_pipeline(shared_path_instance(4, 200))
    rep = result.report
    gamma = 1.0
    for lf in rep.levels:
        block_len = result.tree.ladder.levels[lf.level].block_len
        assert lf.slack == pytest.approx(lf.relax * block_len ** (-1 / 32))
        assert lf.gamma_before == pytest.approx(gamma)
        assert lf.gamma_after == pytest.approx(max(gamma, 1.0) + lf.slack)
        assert lf.achieved <= lf.gamma_after + 1e-9
        gamma = lf.gamma_after
    assert rep.gamma_final == pytest.approx(gamma)
    # D' = 256 fixes exactly the top level; the residual one has budget 2
    assert [lf.level for lf in rep.levels] == [0]
    assert rep.gamma_final == pytest.approx(1 + 256 ** (-1 / 32))
    assert rep.residual_budget == 2


def test_pipeline_shared_path_capacity_one():
    result = run_pipeline(shared_path_instance(4, 16), FixerConfig(delta=2))
    trace = simulate(result.instance, result.schedule, capacity=1)
    assert trace.max_load == 1
    # 4 packets through one path of 16 edges cannot beat C + D - 1
    assert trace.makespan >= 19
    assert result.report.makespan == trace.makespan


def test_pipeline_buffered_keeps_edge_waits_short():
    result = run_pipeline(
        shared_path_instance(4, 16), FixerConfig(variant="buffered", delta=2)
    )
    assert result.report.prestretch_max_edge_wait <= 1
    trace = simulate(result.instance, result.schedule, capacity=1)
    assert trace.max_load == 1


def test_pipeline_resamples_when_first_draw_collides():
    result = run_pipeline(shared_path_instance(21, 32), FixerConfig(delta=2, seed=1))
    assert sum(lf.resamples for lf in result.report.levels) > 0
    assert result.report.load <= result.report.counting_cap + 1e-9


def test_pipeline_greedy_paths():
    inst = shared_path_instance(6, 16)
    cfg = FixerConfig(delta=2, strategy="greedy", finalize_strategy="greedy")
    result = run_pipeline(inst, cfg)
    rep = result.report
    assert all(lf.strategy == "greedy" for lf in rep.levels)
    assert all(lf.resamples == 0 for lf in rep.levels)
    assert rep.load <= rep.counting_cap + 1e-9
    assert simulate(inst, result.schedule, capacity=1).max_load == 1


def test_pipeline_reports_exhausted_budgets():
    # threshold pinned to ~1.0 with one restart and one resample: sixteen
    # uniform draws from sixteen values collide almost surely
    cfg = FixerConfig(
        delta=2,
        slack_exponent=50.0,
        resample_budget=1,
        restart_budget=1,
        relax_ladder=(1.0,),
        seed=0,
    )
    with pytest.raises(FixerError, match="relax factors exhausted"):
        run_pipeline(shared_path_instance(16, 16), cfg)


def test_report_dict_is_json_ready():
    rep = run_pipeline(shared_path_instance(2, 8), FixerConfig(delta=2)).report
    doc = json.loads(json.dumps(rep.to_dict()))
    assert doc["variant"] == "plain"
    assert doc["load"] == rep.load
    assert doc["gamma_final"] == pytest.approx(rep.gamma_final)
    assert isinstance(doc["levels"], list)


# --- building waits from assignments -----------------------------------------

def test_schedule_matches_crossing_times():
    padded = pad(shared_path_instance(2, 16))
    tree = dissect_plain(build_ladder(padded.length, 2))
    assignment = DelayAssignment(tree, 2)
    assignment.set_level(0, [[5], [11]])
    assignment.fill_remaining(2)
    schedule = schedule_from_assignment(padded, tree, assignment)
    for packet in range(2):
        slots = schedule.crossing_slots(packet)
        for pos in range(1, padded.length + 1):
            assert slots[pos - 1] == crossing_time(tree, assignment, packet, pos)


def test_unpad_drops_dummy_motion_only():
    inst = shared_path_instance(3, 13)  # pads to 16 with 3 dummy edges
    result = run_pipeline(inst, FixerConfig(delta=2))
    for packet, path in enumerate(inst.paths):
        padded_row = result.padded_schedule.waits[packet]
        pre_row = result.prestretch.waits[packet]
        assert len(pre_row) == len(path) + 1
        assert pre_row[:-1] == padded_row[: len(path)]
        assert pre_row[-1] == 0
    trace = simulate(inst, result.prestretch, capacity=result.report.load)
    assert trace.makespan == result.report.makespan_prestretch
