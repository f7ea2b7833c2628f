"""Turning random waiting into concrete schedules, level by level.

Each level's draws are pinned so that no (edge, slot) cell's conditional
expected load exceeds the running target plus a per-level slack; a
constructive resampling loop (redraw exactly the variables a bad cell
depends on) is the default, with a greedy min-max sweep as the alternative.
Whatever stays random after the last fixed level is finalized arbitrarily;
the realized integral load c is then certified against the counting bound
c <= gamma * prod(open budgets), and stretching every slot into c slots
yields a capacity-1 schedule.

What is still random about a crossing depends on its position alone, so a
level's delay terms and residual laws are computed once per position and
shared; each (packet, position) adds only the shift its fixed draws make.
"""
from __future__ import annotations

import logging
import random
from dataclasses import asdict, dataclass, field

from .delay_model import (
    AssignmentError,
    DelayAssignment,
    Tree,
    fixed_delay,
    position_terms,
    residual_law,
)
from .dissection import build_ladder, dissect_plain, dissect_shifted
from .instance import Instance, PaddedInstance, pad, stats  # noqa: F401  (perfbench/tracing.py patches fixer.stats)
from .schedule import Schedule
from .simulator import simulate

log = logging.getLogger(__name__)


class FixerError(RuntimeError):
    def __init__(self, message: str, report: "FixReport | None" = None):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class FixerConfig:
    variant: str = "plain"  # "plain" | "buffered"
    delta: int = 4
    strategy: str = "resample"  # "resample" | "greedy"
    finalize_strategy: str = "ones"  # "ones" | "greedy"
    resample_budget: int = 10_000
    restart_budget: int = 3
    relax_ladder: tuple[float, ...] = (1.0, 2.0, 4.0, 8.0)
    slack_exponent: float | None = None  # default 1/32 plain, 1/64 buffered
    seed: int | str = 0

    def exponent(self) -> float:
        if self.slack_exponent is not None:
            return self.slack_exponent
        return 1.0 / 32.0 if self.variant == "plain" else 1.0 / 64.0

    def slack(self, block_len: int, relax: float) -> float:
        return relax * block_len ** (-self.exponent())


def _validated(config: FixerConfig) -> None:
    if config.variant not in ("plain", "buffered"):
        raise ValueError(f"unknown variant {config.variant!r}")
    if config.strategy not in ("resample", "greedy"):
        raise ValueError(f"unknown strategy {config.strategy!r}")
    if config.finalize_strategy not in ("ones", "greedy"):
        raise ValueError(f"unknown finalize strategy {config.finalize_strategy!r}")
    if config.delta < 2:
        raise ValueError(f"delta must be at least 2, got {config.delta}")
    if config.resample_budget < 1 or config.restart_budget < 1:
        raise ValueError("budgets must be at least 1")
    if not config.relax_ladder or any(r < 1 for r in config.relax_ladder):
        raise ValueError("relax factors must be at least 1")


@dataclass(frozen=True)
class LevelFix:
    level: int
    relax: float
    slack: float
    gamma_before: float
    gamma_after: float
    achieved: float
    resamples: int
    restarts: int
    strategy: str


@dataclass
class FixReport:
    variant: str
    delta: int
    levels: list[LevelFix] = field(default_factory=list)
    gamma_final: float = 1.0
    residual_levels: tuple[int, ...] = ()
    residual_budget: int = 1
    counting_cap: float = 0.0
    load: int = 0
    makespan_prestretch: int = 0
    makespan: int = 0
    prestretch_max_edge_wait: int = 0

    @property
    def relax_max(self) -> float:
        return max((lf.relax for lf in self.levels), default=1.0)

    def to_dict(self) -> dict:
        return asdict(self)


# --- incremental conditional-expectation table for one level ----------------

@dataclass(slots=True)
class _Item:
    edge: str
    base: int
    tail: list[tuple[int, float]]  # residual law of deeper open levels, shared per position
    table: tuple[int, ...] | None  # this level's delay per draw (None = identity)
    var: tuple[int, int]  # (packet, block index)


class _LevelWorkspace:
    """Y(edge, slot) as a function of this level's draws, updated in place."""

    def __init__(self, padded: PaddedInstance, tree: Tree, assignment: DelayAssignment, level: int):
        self.level = level
        self.budget = tree.ladder.levels[level].wait_budget
        self.items: list[_Item] = []
        self.by_var: dict[tuple[int, int], list[int]] = {}
        self.by_edge: dict[str, list[int]] = {}
        # everything still random is a function of the position alone
        positions = []
        for pos in range(1, padded.length + 1):
            terms = position_terms(tree, pos)
            shift, tail = residual_law(tree, level + 1, pos)
            positions.append((terms, terms.offset + shift, tail))
        for packet, path in enumerate(padded.padded.paths):
            values = assignment.values[packet]
            for edge_id, (terms, base, tail) in zip(path, positions):
                item = _Item(
                    edge_id,
                    base + fixed_delay(terms, values, level),
                    tail,
                    terms.tables[level],
                    (packet, terms.blocks[level]),
                )
                idx = len(self.items)
                self.items.append(item)
                self.by_var.setdefault(item.var, []).append(idx)
                self.by_edge.setdefault(edge_id, []).append(idx)
        self.variables = sorted(self.by_var)
        self.y: dict[tuple[str, int], float] = {}

    def _delay(self, item: _Item, draw: int) -> int:
        return draw if item.table is None else item.table[draw - 1]

    def add_point(self, idx: int, draw: int, sign: float) -> None:
        item = self.items[idx]
        slot0 = item.base + self._delay(item, draw)
        y = self.y
        for dt, p in item.tail:
            key = (item.edge, slot0 + dt)
            y[key] = y.get(key, 0.0) + sign * p

    def add_blur(self, idx: int, sign: float) -> None:
        """This level's variable still random: spread the item over its law."""
        item = self.items[idx]
        w = sign / self.budget
        y = self.y
        for draw in range(1, self.budget + 1):
            slot0 = item.base + self._delay(item, draw)
            for dt, p in item.tail:
                key = (item.edge, slot0 + dt)
                y[key] = y.get(key, 0.0) + w * p

    def max_y(self) -> float:
        return max(self.y.values()) if self.y else 0.0

    def bad_cells(self, threshold: float) -> list[tuple[str, int]]:
        return sorted(cell for cell, v in self.y.items() if v > threshold)

    def dependents(self, cell: tuple[str, int], draws: dict) -> list[tuple[int, int]]:
        """Variables of this level the cell's value currently depends on."""
        edge, slot = cell
        found: set[tuple[int, int]] = set()
        for idx in self.by_edge.get(edge, ()):
            item = self.items[idx]
            rel = slot - item.base - self._delay(item, draws[item.var])
            if any(dt == rel and p > 0 for dt, p in item.tail):
                found.add(item.var)
        return sorted(found)


def _resample_fix(
    ws: _LevelWorkspace, threshold: float, config: FixerConfig, seed_tag: str
) -> tuple[bool, dict, float, int, int]:
    """Moser-Tardos style: redraw the variables behind the worst cell."""
    best_draws: dict | None = None
    best_max = float("inf")
    total_resamples = 0
    for restart in range(config.restart_budget):
        rng = random.Random(f"{config.seed}/{seed_tag}/restart{restart}")
        draws = {var: rng.randint(1, ws.budget) for var in ws.variables}
        ws.y.clear()
        for idx in range(len(ws.items)):
            ws.add_point(idx, draws[ws.items[idx].var], +1.0)
        for _ in range(config.resample_budget):
            bad = ws.bad_cells(threshold)
            if not bad:
                return True, draws, ws.max_y(), total_resamples, restart
            total_resamples += 1
            for var in ws.dependents(bad[0], draws):
                old = draws[var]
                new = rng.randint(1, ws.budget)
                draws[var] = new
                for idx in ws.by_var[var]:
                    ws.add_point(idx, old, -1.0)
                    ws.add_point(idx, new, +1.0)
        achieved = ws.max_y()
        if achieved < best_max:
            best_max, best_draws = achieved, dict(draws)
    if ws.max_y() <= threshold:
        return True, draws, ws.max_y(), total_resamples, config.restart_budget - 1
    return False, best_draws or {}, best_max, total_resamples, config.restart_budget - 1


def _greedy_fix(ws: _LevelWorkspace) -> tuple[dict, float]:
    """Fix variables one by one, each draw chosen to minimize its local maximum."""
    ws.y.clear()
    for idx in range(len(ws.items)):
        ws.add_blur(idx, +1.0)
    draws: dict = {}
    for var in ws.variables:
        for idx in ws.by_var[var]:
            ws.add_blur(idx, -1.0)
        best_draw, best_val = 1, float("inf")
        for draw in range(1, ws.budget + 1):
            touched: dict[tuple[str, int], float] = {}
            for idx in ws.by_var[var]:
                item = ws.items[idx]
                slot0 = item.base + ws._delay(item, draw)
                for dt, p in item.tail:
                    key = (item.edge, slot0 + dt)
                    touched[key] = touched.get(key, 0.0) + p
            worst = max(ws.y.get(key, 0.0) + extra for key, extra in touched.items())
            if worst < best_val - 1e-12:
                best_draw, best_val = draw, worst
        draws[var] = best_draw
        for idx in ws.by_var[var]:
            ws.add_point(idx, best_draw, +1.0)
    return draws, ws.max_y()


def _draws_to_matrix(tree: Tree, draws: dict, n_packets: int, level: int):
    matrix = [[1] * tree.n_blocks(level) for _ in range(n_packets)]
    for (packet, block), draw in draws.items():
        matrix[packet][block] = draw
    return matrix


def fix_level(
    padded: PaddedInstance,
    tree: Tree,
    assignment: DelayAssignment,
    level: int,
    gamma: float,
    config: FixerConfig,
    relax: float,
) -> LevelFix:
    """Pin one level's draws so all conditional cell loads stay <= gamma + slack.

    Commits into the assignment on success; raises FixerError (carrying the
    best achieved maximum) when the budgets run out.
    """
    block_len = tree.ladder.levels[level].block_len
    slack = config.slack(block_len, relax)
    target = max(gamma, 1.0) + slack
    threshold = target + 1e-9
    ws = _LevelWorkspace(padded, tree, assignment, level)
    if config.strategy == "resample":
        ok, draws, achieved, resamples, restarts = _resample_fix(
            ws, threshold, config, f"fix/level{level}/relax{relax}"
        )
    else:
        draws, achieved = _greedy_fix(ws)
        ok, resamples, restarts = achieved <= threshold, 0, 0
    if not ok:
        raise FixerError(
            f"level {level}: budget exhausted at relax {relax} "
            f"(best achieved {achieved:.6f} vs target {target:.6f})"
        )
    assignment.set_level(level, _draws_to_matrix(tree, draws, padded.padded.n_packets, level))
    log.info(
        "fixed level %d: achieved %.4f <= %.4f (relax %.1f, %d resamples)",
        level, achieved, target, relax, resamples,
    )
    return LevelFix(
        level=level,
        relax=relax,
        slack=slack,
        gamma_before=gamma,
        gamma_after=max(gamma, 1.0) + slack,
        achieved=achieved,
        resamples=resamples,
        restarts=restarts,
        strategy=config.strategy,
    )


# --- finalization, stretching, pipeline -------------------------------------

def _greedy_finalize(padded: PaddedInstance, tree: Tree, assignment: DelayAssignment) -> None:
    while not assignment.fully_fixed:
        level = assignment.frontier
        ws = _LevelWorkspace(padded, tree, assignment, level)
        draws, _ = _greedy_fix(ws)
        assignment.set_level(
            level, _draws_to_matrix(tree, draws, padded.padded.n_packets, level)
        )


def schedule_from_assignment(
    padded: PaddedInstance, tree: Tree, assignment: DelayAssignment
) -> Schedule:
    """Concrete per-node waits realizing the fully fixed policy (padded paths)."""
    if not assignment.fully_fixed:
        raise AssignmentError("assignment incomplete: a schedule needs all levels fixed")
    terms = [position_terms(tree, pos) for pos in range(1, padded.length + 1)]
    n_levels = assignment.n_levels
    waits: list[list[int]] = []
    for values in assignment.values:
        row = []
        prev = 0
        for t in terms:
            slot = t.offset + fixed_delay(t, values, n_levels)
            row.append(slot - prev - 1)
            prev = slot
        sink = 0
        if tree.kind == "plain":
            for level, lv in enumerate(tree.ladder.levels):
                sink += lv.wait_budget - values[level][-1]
        row.append(sink)
        waits.append(row)
    return Schedule(waits=waits)


def realized_loads(padded: PaddedInstance, schedule: Schedule) -> dict[tuple[str, int], int]:
    loads: dict[tuple[str, int], int] = {}
    for packet, path in enumerate(padded.padded.paths):
        for pos, slot in zip(path, schedule.crossing_slots(packet)):
            loads[(pos, slot)] = loads.get((pos, slot), 0) + 1
    return loads


def unpad_schedule(padded: PaddedInstance, schedule: Schedule) -> Schedule:
    """Strip dummy suffixes: motion on real edges is untouched."""
    waits = []
    for packet, m in enumerate(padded.original_lengths):
        waits.append(schedule.waits[packet][:m] + [0])
    return Schedule(waits=waits)


def stretch(schedule: Schedule, load: int, instance: Instance) -> Schedule:
    """Expand each slot into `load` slots; sharers are ordered by packet id.

    A crossing at slot t with rank r lands at load*(t-1) + 1 + r, so every
    original (edge, slot) group spreads over the window [load*t-load+1, load*t]
    collision-free while crossings stay strictly increasing along each path.
    """
    if load <= 1:
        return schedule
    all_slots = [schedule.crossing_slots(i) for i in range(schedule.n_packets)]
    groups: dict[tuple[str, int], list[int]] = {}
    for i, path in enumerate(instance.paths):
        for eid, slot in zip(path, all_slots[i]):
            groups.setdefault((eid, slot), []).append(i)
    rank: dict[tuple[int, str], int] = {}
    for (eid, _), packets in groups.items():
        for r, i in enumerate(sorted(packets)):
            rank[(i, eid)] = r
    waits = []
    for i, path in enumerate(instance.paths):
        new_slots = [
            load * (slot - 1) + 1 + rank[(i, eid)] for eid, slot in zip(path, all_slots[i])
        ]
        row = [new_slots[0] - 1]
        for p in range(1, len(new_slots)):
            row.append(new_slots[p] - new_slots[p - 1] - 1)
        row.append(0)
        waits.append(row)
    return Schedule(waits=waits)


def finalize(
    padded: PaddedInstance,
    tree: Tree,
    assignment: DelayAssignment,
    config: FixerConfig,
    report: FixReport,
) -> Schedule:
    """Fill whatever is still random, certify the counting bound, build waits."""
    open_levels = tuple(range(assignment.frontier, assignment.n_levels))
    residual = 1
    for level in open_levels:
        residual *= tree.ladder.levels[level].wait_budget
    if config.finalize_strategy == "greedy":
        _greedy_finalize(padded, tree, assignment)
    else:
        assignment.fill_remaining(1)
    schedule = schedule_from_assignment(padded, tree, assignment)
    loads = realized_loads(padded, schedule)
    load = max(loads.values())
    report.residual_levels = open_levels
    report.residual_budget = residual
    report.counting_cap = report.gamma_final * residual
    report.load = load
    if load > report.counting_cap + 1e-9:
        raise FixerError(
            f"counting bound violated: load {load} > "
            f"{report.gamma_final} * {residual}", report
        )
    return schedule


@dataclass
class PipelineResult:
    instance: Instance
    padded: PaddedInstance
    tree: Tree
    assignment: DelayAssignment
    report: FixReport
    padded_schedule: Schedule  # load-c schedule on the padded instance
    prestretch: Schedule       # same motion, dummy suffixes removed
    schedule: Schedule         # stretched to capacity 1 on the original instance
    congestion: int = 0
    dilation: int = 0


def run_pipeline(instance: Instance, config: FixerConfig | None = None) -> PipelineResult:
    """pad -> dissect -> fix levels (relax ladder) -> finalize -> stretch -> verify."""
    config = config or FixerConfig()
    _validated(config)
    padded = pad(instance)  # validates once
    s = padded.stats
    delta = min(config.delta, padded.length)
    ladder = build_ladder(padded.length, delta)
    tree = dissect_plain(ladder) if config.variant == "plain" else dissect_shifted(ladder)
    assignment = DelayAssignment(tree, instance.n_packets)
    report = FixReport(variant=config.variant, delta=delta)

    depth = ladder.depth
    last_fixed = depth - 1 if config.variant == "plain" else depth - 2
    gamma = 1.0
    for level in range(0, last_fixed + 1):
        outcome = None
        for relax in config.relax_ladder:
            try:
                outcome = fix_level(padded, tree, assignment, level, gamma, config, relax)
                break
            except FixerError as exc:
                log.info("level %d failed at relax %.1f: %s", level, relax, exc)
        if outcome is None:
            raise FixerError(
                f"level {level}: all relax factors exhausted", report
            )
        report.levels.append(outcome)
        gamma = outcome.gamma_after
    report.gamma_final = gamma

    padded_schedule = finalize(padded, tree, assignment, config, report)

    # plain policy conserves its waiting budget exactly, sink parking included
    if config.variant == "plain":
        budget = ladder.total_wait_budget()
        for packet in range(padded.padded.n_packets):
            got = padded_schedule.total_waiting(packet)
            if got != budget:
                raise FixerError(f"packet {packet}: waiting {got} != budget {budget}", report)

    prestretch = unpad_schedule(padded, padded_schedule)
    report.makespan_prestretch = prestretch.makespan
    pre_trace = simulate(instance, prestretch, capacity=report.load)
    if pre_trace.max_load > report.load:
        raise FixerError("pre-stretch load exceeds the certified bound", report)
    report.prestretch_max_edge_wait = pre_trace.max_edge_wait

    final_schedule = stretch(prestretch, report.load, instance)
    final_trace = simulate(instance, final_schedule, capacity=1)
    if final_trace.max_load > 1:
        raise FixerError("stretched schedule is not capacity-1 feasible", report)
    report.makespan = final_trace.makespan

    return PipelineResult(
        instance=instance,
        padded=padded,
        tree=tree,
        assignment=assignment,
        report=report,
        padded_schedule=padded_schedule,
        prestretch=prestretch,
        schedule=final_schedule,
        congestion=s.congestion,
        dilation=s.dilation,
    )
