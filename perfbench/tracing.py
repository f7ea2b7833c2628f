"""Layer spans recorded from outside the program.

The tracer replaces the module globals that `run_pipeline` looks up (and
the codec and simulator entry points the benchmark calls) with wrappers
that time each call. A layer's self time is its span minus the spans of
the calls it made, so the self times of one op add up to the op's wall
time. Spans are folded into per-layer totals as they close; nothing is
written out.

Per-(packet, position) functions such as `crossing_time` are deliberately
not wrapped: at ~10^5 calls per op the wrapper would cost more than the
work it measures. Their call counts are computed from the call arguments
instead.
"""
from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import thread_time

from cd_router import fixer, instance, schedule, simulator


def _count_fix_level(counts, args, fix, error):
    padded, config = args[0], args[5]
    counts["fixer.fix_level.calls"] += 1
    counts["fixer.items"] += padded.padded.n_packets * padded.length
    if isinstance(error, fixer.FixerError):
        # fix_level raises only after every restart spent its whole budget
        counts["fixer.fix_level.failed"] += 1
        counts["fixer.resamples"] += config.resample_budget * config.restart_budget
    elif fix is not None:
        counts["fixer.resamples"] += fix.resamples
        counts["fixer.restarts"] += fix.restarts


def _count_schedule_from_assignment(counts, args, _result, _error):
    padded = args[0]
    counts["delay_model.crossing_time.calls"] += padded.padded.n_packets * padded.length


def _count_pad(counts, _args, padded, _error):
    if padded is not None:
        counts["instance.pad.dummy_edges"] += len(padded.dummy_edge_ids)


def _count_ladder(counts, _args, ladder, _error):
    if ladder is not None:
        counts["dissection.depth"] += ladder.depth


def _count_simulate(counts, args, trace, _error):
    counts["simulator.simulate.calls"] += 1
    if trace is not None:
        counts["simulator.packet_slots"] += len(args[0].paths) * trace.makespan


def _count_pipeline(counts, _args, result, _error):
    if result is not None:
        report = result.report
        counts["pipeline.ok"] += 1
        counts["fixer.levels_fixed"] += len(report.levels)
        counts["fixer.load"] += report.load
        counts["fixer.load_over_cap"] += report.load / report.counting_cap


# (module, attribute, layer name, counter hook). `stats` and `simulate` are
# looked up both in their own module and in `fixer`, which imported them.
PATCHES = (
    (instance, "decode", "instance.decode", None),
    (instance, "stats", "instance.stats", None),
    (fixer, "stats", "instance.stats", None),
    (fixer, "pad", "instance.pad", _count_pad),
    (fixer, "build_ladder", "dissection.ladder", _count_ladder),
    (fixer, "dissect_plain", "dissection.ladder", None),
    (fixer, "dissect_shifted", "dissection.ladder", None),
    (fixer, "run_pipeline", "pipeline", _count_pipeline),
    (fixer, "fix_level", "fixer.fix_level", _count_fix_level),
    (fixer, "finalize", "fixer.finalize", None),
    (fixer, "schedule_from_assignment", "fixer.schedule_from_assignment",
     _count_schedule_from_assignment),
    (fixer, "realized_loads", "fixer.realized_loads", None),
    (fixer, "unpad_schedule", "fixer.unpad_schedule", None),
    (fixer, "stretch", "fixer.stretch", None),
    (fixer, "simulate", "simulator.simulate", _count_simulate),
    (simulator, "simulate", "simulator.simulate", _count_simulate),
    (simulator, "check", "simulator.check", None),
    (simulator, "loads_csv_rows", "simulator.csv_rows", None),
    (simulator, "arrivals_csv_rows", "simulator.csv_rows", None),
    (schedule, "decode", "schedule.decode", None),
    (schedule, "encode", "schedule.encode", None),
)


class Tracer:
    """Per-layer self time (seconds) and counters, summed over traced calls."""

    def __init__(self, clock=thread_time) -> None:
        self.clock = clock  # a CPU-time clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._child_s = [0.0]  # per open span: time spent in its child spans

    def wrap(self, name, fn, hook):
        child_s, self_s, counts, clock = self._child_s, self.self_s, self.counts, self.clock

        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = clock()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - child_s.pop()
                child_s[-1] += elapsed
                if hook is not None:
                    hook(counts, args, result, error)

        return traced

    @contextmanager
    def installed(self):
        saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in PATCHES]
        try:
            for (module, attr, name, hook), (_, _, original) in zip(PATCHES, saved):
                setattr(module, attr, self.wrap(name, original, hook))
            yield self
        finally:
            for module, attr, original in saved:
                setattr(module, attr, original)
