"""The benchmark's tracer patches program names from outside; they must all exist."""
import importlib.util
import inspect
from pathlib import Path

from cd_router import fixer
from cd_router.instance import generate_random_instance, pad, shared_path_instance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _originals(tracing):
    return [getattr(module, attr) for module, attr, _, _ in tracing.PATCHES]


def test_tracer_installs_over_every_patched_name_and_restores_them():
    tracing = _load_tracing()
    originals = _originals(tracing)
    # a name the program no longer has fails on entry, with AttributeError
    with tracing.Tracer().installed() as tracer:
        # one fixed level, and load 2, so stretch has work to do
        result = fixer.run_pipeline(shared_path_instance(8, 32), fixer.FixerConfig(seed=0))
    assert (len(result.report.levels), result.report.load) == (1, 2)
    assert [getattr(module, attr) for module, attr, _, _ in tracing.PATCHES] == originals
    for layer in ("pipeline", "fixer.fix_level", "fixer.finalize", "fixer.realized_loads", "fixer.stretch"):
        assert layer in tracer.self_s
    assert tracer.counts["pipeline.ok"] == 1
    assert tracer.counts["fixer.fix_level.calls"] == 1


def test_traced_pipeline_counts_the_dummy_edges_it_does_not_build():
    tracing = _load_tracing()
    inst = generate_random_instance("accept2/8", max_packets=6, max_length=28, n_nodes=12)
    padded = pad(inst)
    dummies = sum(padded.length - m for m in padded.original_lengths)
    assert dummies > 0
    originals = _originals(tracing)
    with tracing.Tracer().installed() as tracer:
        # every patched name is installed: a missing one fails on entry
        assert all(a is not b for a, b in zip(_originals(tracing), originals))
        result = fixer.run_pipeline(inst, fixer.FixerConfig(delta=2, seed=0))
    assert result.report.levels
    assert tracer.counts["pipeline.ok"] == 1
    assert tracer.counts["instance.pad.dummy_edges"] == dummies
    # the count hook built the explicit chain, outside the pad span
    assert "_chain" in vars(result.padded)


def test_traced_failed_attempts_count_their_whole_budgets(monkeypatch):
    tracing = _load_tracing()
    # an attempt of one resample fails level 0 at relax 1, which the ladder then climbs
    monkeypatch.setattr(fixer.FixerConfig, "resample_budget", 1)
    with tracing.Tracer().installed() as tracer:
        result = fixer.run_pipeline(shared_path_instance(30, 32), fixer.FixerConfig(seed=0))
    levels = result.report.levels
    assert result.report.relax_max > 1
    failed = tracer.counts["fixer.fix_level.failed"]
    assert failed >= 1
    assert tracer.counts["fixer.fix_level.calls"] == failed + len(levels)
    # a failed attempt spent its whole budget, resample_budget = 1 resample
    assert tracer.counts["fixer.resamples"] == failed + sum(lf.resamples for lf in levels)


def test_fix_level_keeps_the_positions_the_count_hook_reads():
    # `_count_fix_level` reads the instance at args[0] and the config at
    # args[5]; a drifted signature would fail only under `--trace 1`
    params = list(inspect.signature(fixer.fix_level).parameters)
    assert params[0] == "padded"
    assert params[5] == "config"
    # `_count_schedule_from_assignment` reads the instance at args[0]
    assert list(inspect.signature(fixer.schedule_from_assignment).parameters)[0] == "padded"


def test_traced_padded_schedule_counts_a_crossing_per_padded_position():
    tracing = _load_tracing()
    result = fixer.run_pipeline(shared_path_instance(4, 24), fixer.FixerConfig(seed=0))
    with tracing.Tracer().installed() as tracer:
        schedule = fixer.schedule_from_assignment(result.padded, result.assignment)
    assert result.padded.length == 32
    assert [len(waits) for waits in schedule.waits] == [33] * 4
    assert tracer.counts["delay_model.crossing_time.calls"] == 4 * 32
    assert "fixer.schedule_from_assignment" in tracer.self_s


def test_traced_runs_on_a_shared_tree_still_count_the_ladder():
    # the tree is cached inside `dissect_*`; `build_ladder` runs, and is
    # counted, on every run
    tracing = _load_tracing()
    inst, config = shared_path_instance(8, 64), fixer.FixerConfig(delta=2, seed=0)
    warm = fixer.run_pipeline(inst, config)
    with tracing.Tracer().installed() as tracer:
        results = [fixer.run_pipeline(inst, config) for _ in range(2)]
    depth = warm.assignment.tree.ladder.depth
    assert depth > 0
    assert all(result.assignment.tree is warm.assignment.tree for result in results)
    assert tracer.counts["dissection.depth"] == 2 * depth
    assert "dissection.ladder" in tracer.self_s
