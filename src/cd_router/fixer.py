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
Every budget is a power of two, so the expected loads are exact integer
counts of draw combinations, compared against an integer limit. They are
kept in one slot-indexed row per edge that two or more packets use; an
edge of one packet can never break the limit and gets no row.
"""
from __future__ import annotations

import logging
import random
from dataclasses import asdict, dataclass, field
from math import floor, inf, prod

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
    row: int  # index of its edge's row in Y
    base: int  # slot offset within that row, before this level's delay
    delays: tuple[int, ...]  # this level's delay per draw, shared per position
    tail: list[tuple[int, int]]  # (delay, count) law of deeper open levels, shared per position
    var: tuple[int, int]  # (packet, block index)


class _LevelWorkspace:
    """Y(edge, slot) as a function of this level's draws, updated in place.

    Y is held in exact integers, in units of 1/`scale`, where `scale` is the
    product of the budgets of this level and of every deeper level.

    Y is a list of slot rows, one per edge that two or more padded paths
    use, in ascending edge id order: `edges[r]` is row r's edge and `lo[r]`
    its first slot, so cell (edges[r], lo[r] + i) is `y[r][i]`. A row covers
    every slot its items can reach under any draw, and an item's `base` is
    relative to its row's `lo`.

    An edge that one packet uses holds a single item at weight `budget`, so
    none of its cells exceeds `scale`; the limit `floor(target * scale)` has
    target > 1, so such a cell is never bad, and the edge gets no row. Its
    largest cell is `budget` times the largest count of its tail law under
    every draw; `solo` keeps the largest such count per variable, and
    `max_y` and the greedy probes take it into their maximum.

    The first bad cell is in the first row whose maximum exceeds the limit.
    The built-in `max` scans a row far faster than a heap or per-row maxima
    could be kept up to date on every spread, so neither is kept.
    """

    def __init__(self, padded: PaddedInstance, tree: Tree, assignment: DelayAssignment, level: int):
        self.budget = tree.ladder.levels[level].wait_budget
        self.scale = prod(lv.wait_budget for lv in tree.ladder.levels[level:])
        self.n_packets = padded.padded.n_packets
        self.n_blocks = tree.n_blocks(level)
        # rows go in ascending edge id order, the order of (edge, slot) cells
        self.edges = sorted(e for e, load in padded.stats.edge_loads.items() if load > 1)
        row_of = {e: r for r, e in enumerate(self.edges)}
        self.items: list[_Item] = []
        self.by_row: list[list[_Item]] = [[] for _ in self.edges]
        # by_var gets its keys packet by packet, blocks ascending, so they
        # come in (packet, block) order
        self.by_var: dict[tuple[int, int], list[_Item]] = {}
        self.solo: dict[tuple[int, int], int] = {}
        lo = [inf] * len(self.edges)
        hi = [-inf] * len(self.edges)
        # everything still random is a function of the position alone
        identity = tuple(range(1, self.budget + 1))
        positions = []
        for pos in range(1, padded.length + 1):
            terms = position_terms(tree, pos)
            table = terms.tables[level]
            delays = identity if table is None else table
            tail = residual_law(tree, level + 1, pos)
            first, last = min(delays) + tail[0][0], max(delays) + tail[-1][0]
            peak = max(count for _, count in tail)
            positions.append((terms, terms.blocks[level], delays, tail, first, last, peak))
        for packet, path in enumerate(padded.padded.paths):
            values = assignment.values[packet]
            packet_vars = [(packet, block) for block in range(self.n_blocks)]
            packet_items = [self.by_var.setdefault(var, []) for var in packet_vars]
            for edge_id, (terms, block, delays, tail, first, last, peak) in zip(path, positions):
                var = packet_vars[block]
                row = row_of.get(edge_id)
                if row is None:
                    if peak > self.solo.get(var, 0):
                        self.solo[var] = peak
                    continue
                base = terms.offset + fixed_delay(terms, values, level)
                item = _Item(row, base, delays, tail, var)
                packet_items[block].append(item)
                self.items.append(item)
                self.by_row[row].append(item)
                if base + first < lo[row]:
                    lo[row] = base + first
                if base + last > hi[row]:
                    hi[row] = base + last
        for item in self.items:
            item.base -= lo[item.row]
        self.lo = lo
        self.y: list[list[int]] = [[0] * (b - a + 1) for a, b in zip(lo, hi)]
        self.solo_max = max(self.solo.values(), default=0)

    @staticmethod
    def spread(y: list[list[int]], item: _Item, draw: int, weight: int) -> None:
        """Add `weight` times the item's law, given this level's `draw`, into y."""
        row = y[item.row]
        slot0 = item.base + item.delays[draw - 1]
        for dt, count in item.tail:
            row[slot0 + dt] += weight * count

    def clear(self) -> None:
        for row in self.y:
            row[:] = [0] * len(row)

    def add_blur(self, item: _Item, sign: int) -> None:
        """This level's variable still random: spread the item over its law."""
        for draw in range(1, self.budget + 1):
            self.spread(self.y, item, draw, sign)

    def max_y(self) -> int:
        return max(self.budget * self.solo_max, max(map(max, self.y), default=0))

    def first_bad_cell(self, limit: int) -> tuple[int, int] | None:
        """(row, index) of the least (edge id, slot) cell above `limit`, if any."""
        for r, row in enumerate(self.y):
            if max(row) > limit:
                return r, next(i for i, v in enumerate(row) if v > limit)
        return None

    def dependents(self, cell: tuple[int, int], draws: list[list[int]]) -> list[tuple[int, int]]:
        """Variables of this level the cell's value currently depends on."""
        row, index = cell
        found: set[tuple[int, int]] = set()
        for item in self.by_row[row]:
            packet, block = item.var
            rel = index - item.base - item.delays[draws[packet][block] - 1]
            if any(dt == rel for dt, _ in item.tail):
                found.add(item.var)
        return sorted(found)


def _resample_fix(
    ws: _LevelWorkspace, limit: int, config: FixerConfig, seed_tag: str
) -> tuple[list[list[int]], int, int, int]:
    """Moser-Tardos style: redraw the variables behind the first bad cell.

    Returns (draws, max Y, resamples, restarts); when every restart fails,
    max Y is the least one a restart ended with, and it exceeds `limit`.
    """
    y, spread, budget = ws.y, ws.spread, ws.budget
    best_max = None
    total_resamples = 0
    for restart in range(config.restart_budget):
        rng = random.Random(f"{config.seed}/{seed_tag}/restart{restart}")
        draws = [[rng.randint(1, budget) for _ in range(ws.n_blocks)] for _ in range(ws.n_packets)]
        ws.clear()
        for item in ws.items:
            packet, block = item.var
            spread(y, item, draws[packet][block], budget)
        for step in range(config.resample_budget + 1):
            cell = ws.first_bad_cell(limit)
            if cell is None:
                return draws, ws.max_y(), total_resamples, restart
            if step == config.resample_budget:
                break
            total_resamples += 1
            for var in ws.dependents(cell, draws):
                packet, block = var
                old = draws[packet][block]
                new = rng.randint(1, budget)
                draws[packet][block] = new
                for item in ws.by_var[var]:
                    spread(y, item, old, -budget)
                    spread(y, item, new, budget)
        achieved = ws.max_y()
        if best_max is None or achieved < best_max:
            best_max = achieved
    return draws, best_max, total_resamples, config.restart_budget - 1


def _greedy_fix(ws: _LevelWorkspace) -> tuple[list[list[int]], int]:
    """Fix variables one by one, each draw chosen to minimize its local maximum."""
    y, spread, budget = ws.y, ws.spread, ws.budget
    ws.clear()
    for item in ws.items:
        ws.add_blur(item, +1)
    draws = [[1] * ws.n_blocks for _ in range(ws.n_packets)]
    for var, items in ws.by_var.items():
        for item in items:
            ws.add_blur(item, -1)
        # the variable's unshared edges add the same maximum under every draw
        solo = budget * ws.solo.get(var, 0)
        probes = []
        for draw in range(1, budget + 1):
            for item in items:
                spread(y, item, draw, budget)
            peak = solo
            for item in items:
                row = y[item.row]
                slot0 = item.base + item.delays[draw - 1]
                peak = max(peak, max(row[slot0 + dt] for dt, _ in item.tail))
            for item in items:
                spread(y, item, draw, -budget)
            probes.append((peak, draw))
        best = min(probes)[1]  # the first draw with the least maximum
        packet, block = var
        draws[packet][block] = best
        for item in items:
            spread(y, item, best, budget)
    return draws, ws.max_y()


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
    ws = _LevelWorkspace(padded, tree, assignment, level)
    # Y is an integer, so Y > target * scale exactly when Y > limit
    limit = floor(target * ws.scale)
    if config.strategy == "resample":
        draws, peak, resamples, restarts = _resample_fix(
            ws, limit, config, f"fix/level{level}/relax{relax}"
        )
    else:
        (draws, peak), resamples, restarts = _greedy_fix(ws), 0, 0
    achieved = peak / ws.scale
    if peak > limit:
        raise FixerError(
            f"level {level}: budget exhausted at relax {relax} "
            f"(best achieved {achieved:.6f} vs target {target:.6f})"
        )
    assignment.set_level(level, draws)
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
        draws, _ = _greedy_fix(_LevelWorkspace(padded, tree, assignment, level))
        assignment.set_level(level, draws)


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
    # packets go in ascending id, so a crossing's rank is the number of
    # crossings already placed in its (edge, slot)
    sharers: dict[tuple[str, int], int] = {}
    waits = []
    for i, path in enumerate(instance.paths):
        row = []
        prev = 0
        for eid, slot in zip(path, schedule.crossing_slots(i)):
            rank = sharers.get((eid, slot), 0)
            sharers[(eid, slot)] = rank + 1
            new_slot = load * (slot - 1) + 1 + rank
            row.append(new_slot - prev - 1)
            prev = new_slot
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
    if load > report.counting_cap:
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
