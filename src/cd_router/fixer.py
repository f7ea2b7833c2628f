"""Turning random waiting into concrete schedules, level by level.

Each level's draws are pinned so that no (edge, slot) cell's conditional
expected load exceeds the running target plus a per-level slack: by a
resampling loop that redraws exactly the variables a bad cell depends on,
the default, or by a greedy min-max sweep. The expected loads are exact
integers, held per level by `_LevelWorkspace`, whose docstring gives their
layout. Whatever stays random after the last fixed level is finalized
arbitrarily.

`finalize` turns each packet's slots at its real positions into waits
(`waits_from_slots`, the inverse of `Schedule.crossing_slots`), ranks the
crossings once (`realized_loads`: how many packets of lower id share each
crossing's (edge, slot) cell), certifies the integral load c = 1 + the
largest rank against the counting bound c <= gamma * prod(open budgets),
and hands the ranks to `stretch`, which expands every slot into c slots to
give a capacity-1 schedule. At load 1 `stretch` hands back the pre-stretch
schedule, and its replay is also the capacity-1 check's.

What is still random about a crossing depends on its position alone: the
dissection and its per-position columns (`tree.columns`) are shared by every
run on a ladder and variant, and a packet's fixed draws become its slot at
every position in one column-wise pass (`DelayAssignment.fixed_slots`).
Every slot and crossing law here reads the assignment's tree
(`assignment.tree`); no function takes the tree a second time. The
crossings that share an edge, and every slot they could reach at any
level, are indexed once per run (`_CrossingIndex`).
"""
from __future__ import annotations

import logging
import random
from bisect import bisect_left
from dataclasses import asdict, dataclass, field
from functools import cached_property
from itertools import chain, compress, pairwise, repeat
from math import floor, inf, prod
from operator import add, sub
from typing import ClassVar

from .delay_model import AssignmentError, DelayAssignment, Tree, residual_law
from .dissection import build_ladder, dissect_plain, dissect_shifted
from .instance import Instance, PaddedInstance, pad, stats  # noqa: F401  (perfbench/tracing.py patches fixer.stats)
from .schedule import Schedule, waits_from_slots
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
    seed: int | str = 0
    # the resampling loop's bounds: redraws per restart and restarts per
    # relax factor; the relax factors scale the slack, tried in this order
    resample_budget: ClassVar[int] = 10_000
    restart_budget: ClassVar[int] = 3
    relax_ladder: ClassVar[tuple[float, ...]] = (1.0, 2.0, 4.0, 8.0)

    def slack(self, block_len: int, relax: float) -> float:
        return relax * block_len ** (-1 / 32 if self.variant == "plain" else -1 / 64)


def _validated(config: FixerConfig) -> None:
    if config.variant not in ("plain", "buffered"):
        raise ValueError(f"unknown variant {config.variant!r}")
    if config.strategy not in ("resample", "greedy"):
        raise ValueError(f"unknown strategy {config.strategy!r}")
    if config.finalize_strategy not in ("ones", "greedy"):
        raise ValueError(f"unknown finalize strategy {config.finalize_strategy!r}")
    if config.delta < 2:
        raise ValueError(f"delta must be at least 2, got {config.delta}")


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

class _CrossingIndex:
    """The crossings of shared edges, and every slot they can reach: what no level changes.

    Pinning a level only narrows what is still random, so which crossings
    share an edge, and every slot each could reach under any draws, are
    known before level 0 is fixed. `run_pipeline` builds one index and
    hands it to every level's workspace, relax attempts and the greedy
    finalize included.

    `edges[r]` is row r's edge, in ascending edge id order. Item i, a
    (packet, position) crossing of a shared edge, is `rows[i]` and `pos[i]`
    (position index p, for edge position p + 1); items go in packet order
    and, within a packet, in position order. `shared[k]` masks packet k's
    real positions that are items.

    Row r spans slots `lo[r]` .. `lo[r] + widths[r] - 1`, the ladder-wide
    reach of its items: each position's offset plus the least and the
    largest delay of the whole ladder, taken over the distinct (row,
    position) pairs. At level 0 that is exactly the reach under any draw;
    a deeper level reaches a subset, so its rows only hold more cells that
    stay 0. `by_row`, the items per row, is built on first read.

    `ints` is one int object per value, 0 upward, extended by each
    workspace to its variable count: `pos` and every workspace's `var`
    refer to these instead of minting an int per item.
    """

    def __init__(self, padded: PaddedInstance, assignment: DelayAssignment):
        tree, columns = assignment.tree, assignment.tree.columns
        self.length = padded.length
        self.edges = sorted(e for e, load in padded.stats.edge_loads.items() if load > 1)
        row_of = {e: r for r, e in enumerate(self.edges)}
        paths = padded.base.paths
        self.shared = [list(map(row_of.__contains__, path)) for path in paths]
        self.rows = list(chain.from_iterable(
            map(row_of.__getitem__, compress(path, mask)) for path, mask in zip(paths, self.shared)
        ))
        self.ints = list(range(padded.length))
        self.pos = list(chain.from_iterable(compress(self.ints, mask) for mask in self.shared))
        # a level delays by its table, or by its draw 1 .. budget where it has none
        least = most = columns.offsets
        for lv, table in zip(tree.ladder.levels, columns.tables):
            if table is None:
                least = [t + 1 for t in least]
                most = [t + lv.wait_budget for t in most]
            else:
                least = list(map(add, least, map(min, table)))
                most = list(map(add, most, map(max, table)))
        lo = [inf] * len(self.edges)
        hi = [-inf] * len(self.edges)
        for r, p in set(zip(self.rows, self.pos)):
            if least[p] < lo[r]:
                lo[r] = least[p]
            if most[p] > hi[r]:
                hi[r] = most[p]
        self.lo = lo
        self.widths = [b - a + 1 for a, b in zip(lo, hi)]

    @cached_property
    def by_row(self) -> list[list[int]]:
        by_row: list[list[int]] = [[] for _ in self.edges]
        for i, r in enumerate(self.rows):
            by_row[r].append(i)
        return by_row


class _LevelWorkspace:
    """Y(edge, slot) as a function of this level's draws, updated in place.

    Y is held in exact integers, in units of 1/`scale`. A `blurred`
    workspace, which the greedy sweep and the greedy finalize build, can
    hold open variables: its `scale` is the product of the budgets of this
    level and of every deeper level, and each crossing adds its deeper law
    at `weight` = `budget`. One that resampling builds holds every crossing
    at a draw: its `scale` is the product of the deeper budgets alone, and
    `weight` is 1, so its cells are small counts (at most the deeper
    budgets' product per crossing). Every budget is a power of two, so both
    units give the same bad cells and the same maximum over `scale`. Y is a
    list of slot rows, one per edge that two or more padded paths use, laid
    out by the run's `_CrossingIndex`: cell (index.edges[r], index.lo[r] + i)
    is `y[r][i]`, and every level's rows have the same `lo` and length.

    Item i, a (packet, position) crossing of a shared edge, is four flat
    ints: `rows[i]` and `pos[i]` from the index, `bases[i]` (its slot before
    this level's delay, relative to its row's `lo`) and `var[i]` (packet *
    n_blocks + block, the variable whose draw moves it). Items go in packet
    order and, within a packet, in position order, and a block index never
    falls as the position grows, so a variable's items are contiguous:
    `by_var[v]` is a range, found by bisection.

    A draw is 1 .. `budget`, and draw 0 means the variable is still open,
    which only a blurred workspace takes.
    What is still random is a function of the position alone, so it is held
    once per position, and computed once per distinct law: the delay of
    draw d, `delays[p][d]` (0 at draw 0); the law of the deeper open levels
    at `weight`, `weighted[p]`, as (offset, value) pairs; its offsets
    as a set, `offsets[p]`; and, on first read, which only the greedy sweep
    makes, the law of this level and the deeper ones, `blurs[p]`, which is
    what an open variable adds at its base slot. A packet's fixed draws only
    shift `bases`, computed a column at a time by
    `DelayAssignment.fixed_slots`. A bad cell's dependents are found through
    the index's `by_row`: an item is one when the cell's offset from its
    slot is in `offsets[p]`.

    Y has three writers. `fill` adds every item at its draw into a zero Y.
    `spread` adds (sign +1) or takes off (-1) one variable's items at one
    draw, each at its blur at draw 0. `move` redraws a variable in one pass
    over its items, and the resampling loop skips it when the redraw repeats
    the old draw.

    An edge that one packet uses gets no row, nor does a dummy position: it
    holds a single item at `weight`, so none of its cells exceeds `scale`,
    and the limit `floor(target * scale)` has target > 1. Its largest cell
    is `weight` times the largest count of its deeper law. `ceiling[b]` is
    the largest such count over every position of block b, and `peak`,
    `max_y` and `first_bad_cell` take `weight` times it into their maximum.
    That the shared positions count too changes none of them: Y is never
    negative, so an added shared item's own cells hold at least `weight`
    times its law's counts.

    The first bad cell is in the first row whose maximum exceeds the limit.
    The built-in `max` scans a row far faster than a heap or per-row maxima
    could be kept up to date on every write, so neither is kept; when no
    row is bad, the row maxima read on the way are max Y, so a level that
    needs no resample scans Y once.
    """

    def __init__(
        self, index: _CrossingIndex, assignment: DelayAssignment, level: int, blurred: bool = True
    ):
        tree, columns = assignment.tree, assignment.tree.columns
        self.index, self.tree, self.level, self.blurred = index, tree, level, blurred
        self.rows, self.pos = index.rows, index.pos
        self.budget = tree.ladder.levels[level].wait_budget
        self.weight = weight = self.budget if blurred else 1
        self.scale = weight * prod(lv.wait_budget for lv in tree.ladder.levels[level + 1:])
        self.n_blocks = n_blocks = tree.n_blocks(level)
        # what is still random at a position depends only on its delay
        # tables for this level and the deeper ones, and few positions
        # differ in those
        identity = tuple(range(self.budget + 1))
        laws: dict[tuple, tuple] = {}
        per_position = []
        deeper = (repeat(None) if t is None else t for t in columns.tables[level:])
        for p, key in zip(range(index.length), zip(*deeper)):
            law = laws.get(key)
            if law is None:
                tail = residual_law(tree, level + 1, p + 1)
                law = laws[key] = (
                    p,  # the first position with this law, where `blurs` computes it
                    identity if key[0] is None else (0, *key[0]),
                    [(dt, weight * count) for dt, count in tail],
                    frozenset(dt for dt, _ in tail),
                    max(count for _, count in tail),
                )
            per_position.append(law)
        self.alike, self.delays, self.weighted, self.offsets, tops = (
            list(c) for c in zip(*per_position)
        )
        block_of = columns.blocks[level]
        self.ceiling = ceiling = [0] * n_blocks
        for b, top in zip(block_of, tops):
            if top > ceiling[b]:
                ceiling[b] = top
        self.unshared_max = weight * max(ceiling)
        n_vars = len(index.shared) * n_blocks
        ints = index.ints
        ints.extend(range(len(ints), n_vars))
        bases: list[int] = []
        var: list[int] = []
        for packet, mask in enumerate(index.shared):
            first = packet * n_blocks
            bases.extend(compress(assignment.fixed_slots(packet, level), mask))
            var.extend(compress(map(ints[first:first + n_blocks].__getitem__, block_of), mask))
        self.var = var
        self.bases = list(map(sub, bases, map(index.lo.__getitem__, index.rows)))
        bounds = [bisect_left(var, v) for v in range(n_vars + 1)]
        self.by_var = [range(a, b) for a, b in pairwise(bounds)]
        self.y: list[list[int]] = [[0] * width for width in index.widths]

    def fill(self, draws: list[int]) -> None:
        """Add every item's law at `weight`, given the draws per variable, into a zero Y."""
        y, delays, weighted = self.y, self.delays, self.weighted
        for r, base, p, v in zip(self.rows, self.bases, self.pos, self.var):
            row = y[r]
            slot0 = base + delays[p][draws[v]]
            for dt, value in weighted[p]:
                row[slot0 + dt] += value

    def spread(self, var: int, draw: int, sign: int) -> None:
        """Add (`sign` +1) or take off (-1) the variable's items at `draw`.

        Each item adds its law at `weight`, or its blur while the variable
        is open (draw 0), which only a blurred workspace takes.
        """
        y, delays = self.y, self.delays
        laws = self.blurs if draw == 0 else self.weighted
        items = self.by_var[var]
        a, b = items.start, items.stop
        for r, base, p in zip(self.rows[a:b], self.bases[a:b], self.pos[a:b]):
            row = y[r]
            slot0 = base + delays[p][draw]
            for dt, value in laws[p]:
                row[slot0 + dt] += sign * value

    def move(self, var: int, old: int, new: int) -> None:
        """Redraw one variable: move its items' laws, at `weight`, from draw `old` to `new`."""
        y, delays, weighted = self.y, self.delays, self.weighted
        items = self.by_var[var]
        a, b = items.start, items.stop
        for r, base, p in zip(self.rows[a:b], self.bases[a:b], self.pos[a:b]):
            row = y[r]
            at = delays[p]
            gone, come = base + at[old], base + at[new]
            for dt, value in weighted[p]:
                row[gone + dt] -= value
                row[come + dt] += value

    def clear(self) -> None:
        for row in self.y:
            row[:] = [0] * len(row)

    @cached_property
    def blurs(self) -> list[list[tuple[int, int]]]:
        """Per position, the `residual_law` of this level and the deeper ones, once per distinct law."""
        if not self.blurred:
            raise ValueError("an open variable needs a blurred workspace")
        laws = {p: residual_law(self.tree, self.level, p + 1) for p in set(self.alike)}
        return [laws[p] for p in self.alike]

    def peak(self, var: int, draw: int) -> int:
        """Max Y over the variable's cells, its unshared ones included, were it added at `draw`.

        Y is read as it is, plus each item's weighted law: a packet crosses
        an edge once, so no two items of one variable share a cell.
        """
        y, rows, bases, pos, delays, weighted = self.y, self.rows, self.bases, self.pos, self.delays, self.weighted
        peak = self.weight * self.ceiling[var % self.n_blocks]
        for i in self.by_var[var]:
            p = pos[i]
            row = y[rows[i]]
            slot0 = bases[i] + delays[p][draw]
            peak = max(peak, max(row[slot0 + dt] + value for dt, value in weighted[p]))
        return peak

    def max_y(self) -> int:
        return max(self.unshared_max, max(map(max, self.y), default=0))

    def first_bad_cell(self, limit: int) -> tuple[tuple[int, int] | None, int]:
        """(row, index) of the least (edge id, slot) cell above `limit`, and a maximum.

        The scan stops at the first bad row, whose maximum comes second;
        with no bad cell it reads every row, and max Y comes second.
        """
        peak = self.unshared_max
        for r, row in enumerate(self.y):
            top = max(row)
            if top > limit:
                return (r, next(i for i, v in enumerate(row) if v > limit)), top
            if top > peak:
                peak = top
        return None, peak

    def dependents(self, cell: tuple[int, int], draws: list[int]) -> list[int]:
        """Variables of this level the cell's value currently depends on."""
        row, index = cell
        bases, pos, var, delays, offsets = self.bases, self.pos, self.var, self.delays, self.offsets
        found: set[int] = set()
        for i in self.index.by_row[row]:
            p, v = pos[i], var[i]
            if index - bases[i] - delays[p][draws[v]] in offsets[p]:
                found.add(v)
        return sorted(found)

    def per_packet(self, draws: list[int]) -> list[list[int]]:
        """Draws per variable as one row of blocks per packet."""
        n = self.n_blocks
        return [draws[k:k + n] for k in range(0, len(draws), n)]


def _resample_fix(
    ws: _LevelWorkspace, limit: int, config: FixerConfig, seed_tag: str
) -> tuple[list[list[int]], int, int, int]:
    """Moser-Tardos style: redraw the variables behind the first bad cell.

    Takes a freshly built workspace. Returns (draws, max Y, resamples,
    restarts); when every restart fails, max Y is the least one a restart
    ended with, and it exceeds `limit`.
    """
    move, budget = ws.move, ws.budget
    best_max = None
    total_resamples = 0
    for restart in range(config.restart_budget):
        rng = random.Random(f"{config.seed}/{seed_tag}/restart{restart}")
        draws = [rng.randint(1, budget) for _ in range(len(ws.by_var))]
        if restart:
            ws.clear()
        ws.fill(draws)
        for step in range(config.resample_budget + 1):
            cell, peak = ws.first_bad_cell(limit)
            if cell is None:
                return ws.per_packet(draws), peak, total_resamples, restart
            if step == config.resample_budget:
                break
            total_resamples += 1
            for var in ws.dependents(cell, draws):
                old = draws[var]
                new = rng.randint(1, budget)
                if new != old:  # a repeated draw leaves Y as it is
                    draws[var] = new
                    move(var, old, new)
        achieved = ws.max_y()
        if best_max is None or achieved < best_max:
            best_max = achieved
    return ws.per_packet(draws), best_max, total_resamples, config.restart_budget - 1


def _greedy_fix(ws: _LevelWorkspace) -> tuple[list[list[int]], int]:
    """Fix variables one by one, each draw chosen to minimize its local maximum.

    Takes a freshly built blurred workspace.
    """
    n_vars = len(ws.by_var)
    draws = [0] * n_vars  # every variable open
    for var in range(n_vars):
        ws.spread(var, 0, +1)
    for var in range(n_vars):
        ws.spread(var, 0, -1)
        # the first draw with the least maximum
        draws[var] = best = min(range(1, ws.budget + 1), key=lambda draw: ws.peak(var, draw))
        ws.spread(var, best, +1)
    return ws.per_packet(draws), ws.max_y()


def fix_level(
    padded: PaddedInstance,
    index: _CrossingIndex,
    assignment: DelayAssignment,
    level: int,
    gamma: float,
    config: FixerConfig,
    relax: float,
) -> LevelFix:
    """Pin one level's draws so all conditional cell loads stay <= gamma + slack.

    Commits into the assignment on success; raises FixerError (carrying the
    best achieved maximum) when the budgets run out. Resampling holds every
    crossing at a draw, so its workspace counts in units of 1/(the deeper
    budgets' product); only the greedy sweep, which blurs open variables
    in, counts in units of 1/(this level's budget times it). The crossings
    are the run's `index`, and their slots read the assignment's tree.
    `padded` is read only by the benchmark's count hook, which takes it as
    the first argument and `config` as the sixth.
    """
    block_len = assignment.tree.ladder.levels[level].block_len
    slack = config.slack(block_len, relax)
    target = max(gamma, 1.0) + slack
    ws = _LevelWorkspace(index, assignment, level, config.strategy == "greedy")
    # Y is an integer, so Y > target * scale exactly when Y > limit. Every
    # budget is a power of two, so scaling by one is exact in floating point:
    # in either unit the limit, the bad cells and `peak / scale` are the same
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

def _parking(tree: Tree, values: list[list[int]]) -> int:
    """What a packet's last blocks leave of their budgets, parked at its sink (plain only)."""
    if tree.kind != "plain":
        return 0
    return sum(lv.wait_budget - values[level][-1] for level, lv in enumerate(tree.ladder.levels))


def schedule_from_assignment(padded: PaddedInstance, assignment: DelayAssignment) -> Schedule:
    """Concrete per-node waits realizing the fully fixed policy (padded paths).

    The slots read the assignment's tree. `padded` is read only by the
    benchmark's count hook, which takes it as the first argument.
    """
    if not assignment.fully_fixed:
        raise AssignmentError("assignment incomplete: a schedule needs all levels fixed")
    return Schedule(waits=[
        waits_from_slots(assignment.fixed_slots(packet, assignment.n_levels), _parking(assignment.tree, values))
        for packet, values in enumerate(assignment.values)
    ])


def realized_loads(instance: Instance, schedule: Schedule) -> list[list[int]]:
    """Per packet and crossing, how many packets of lower id cross the same (edge, slot).

    A cell holding k crossings ranks them 0 .. k - 1 in packet order, so the
    realized load is 1 + the largest rank.
    """
    seen: dict[tuple[str, int], int] = {}  # crossings per cell so far
    ranks = []
    for packet, path in enumerate(instance.paths):
        rank = []
        for cell in zip(path, schedule.crossing_slots(packet)):
            r = seen.get(cell, 0)
            seen[cell] = r + 1
            rank.append(r)
        ranks.append(rank)
    return ranks


def unpad_schedule(padded: PaddedInstance, schedule: Schedule) -> Schedule:
    """Strip dummy suffixes, leaving motion on real edges: the reference for `finalize`'s waits."""
    waits = []
    for packet, m in enumerate(padded.original_lengths):
        waits.append(schedule.waits[packet][:m] + [0])
    return Schedule(waits=waits)


def stretch(schedule: Schedule, load: int, ranks: list[list[int]]) -> Schedule:
    """Expand each slot into `load` slots; sharers are ordered by packet id.

    `ranks` are the schedule's `realized_loads`. A crossing at slot t with
    rank r lands at load*(t-1) + 1 + r, so every original (edge, slot) group
    spreads over the window [load*t-load+1, load*t] collision-free while
    crossings stay strictly increasing along each path.
    """
    if load <= 1:
        return schedule
    waits = []
    for packet, rank in enumerate(ranks):
        slots = schedule.crossing_slots(packet)
        waits.append(waits_from_slots([load * (t - 1) + 1 + r for t, r in zip(slots, rank)], 0))
    return Schedule(waits=waits)


def finalize(
    padded: PaddedInstance,
    assignment: DelayAssignment,
    config: FixerConfig,
    report: FixReport,
    index: _CrossingIndex | None,
) -> tuple[Schedule, list[list[int]]]:
    """Fill whatever is still random, build the waits, certify the counting bound.

    Returns the pre-stretch schedule, on the real paths, and its
    `realized_loads` ranks. Dummy positions are private and never raise a
    rank, so the real paths, each a prefix of its padded one, give the load.
    The greedy finalize fixes the open levels on the run's `index`, which
    `ones` does not read. The slots and budgets read the assignment's tree.
    """
    tree = assignment.tree
    open_levels = tuple(range(assignment.frontier, assignment.n_levels))
    residual = prod(tree.ladder.levels[level].wait_budget for level in open_levels)
    if config.finalize_strategy == "greedy":
        while not assignment.fully_fixed:
            level = assignment.frontier
            draws, _ = _greedy_fix(_LevelWorkspace(index, assignment, level, True))
            assignment.set_level(level, draws)
    else:
        assignment.fill_remaining(1)
    budget = tree.ladder.total_wait_budget()
    waits = []
    for packet, m in enumerate(padded.original_lengths):
        slots = assignment.fixed_slots(packet, assignment.n_levels)
        # plain policy conserves its waiting budget exactly: the waits before
        # the last padded crossing, plus what is parked at the sink
        if tree.kind == "plain":
            got = slots[-1] - padded.length + _parking(tree, assignment.values[packet])
            if got != budget:
                raise FixerError(f"packet {packet}: waiting {got} != budget {budget}", report)
        waits.append(waits_from_slots(slots[:m], 0))
    schedule = Schedule(waits=waits)
    ranks = realized_loads(padded.base, schedule)
    load = 1 + max(map(max, ranks))
    report.residual_levels = open_levels
    report.residual_budget = residual
    report.counting_cap = report.gamma_final * residual
    report.load = load
    if load > report.counting_cap:
        raise FixerError(
            f"counting bound violated: load {load} > "
            f"{report.gamma_final} * {residual}", report
        )
    return schedule, ranks


@dataclass
class PipelineResult:
    """What a run made. Each fact has one owner: the instance is `padded.base`,
    its congestion and dilation are in `padded.stats`, and the tree is
    `assignment.tree`.
    """

    padded: PaddedInstance
    assignment: DelayAssignment
    report: FixReport
    prestretch: Schedule  # load-c schedule on the original instance
    schedule: Schedule    # stretched to capacity 1 on the original instance


def run_pipeline(instance: Instance, config: FixerConfig | None = None) -> PipelineResult:
    """pad -> dissect -> fix levels (relax ladder) -> finalize -> stretch -> verify."""
    config = config or FixerConfig()
    _validated(config)
    padded = pad(instance)  # validates once
    delta = min(config.delta, padded.length)
    ladder = build_ladder(padded.length, delta)
    tree = dissect_plain(ladder) if config.variant == "plain" else dissect_shifted(ladder)
    assignment = DelayAssignment(tree, instance.n_packets)
    report = FixReport(variant=config.variant, delta=delta)

    depth = ladder.depth
    last_fixed = depth - 1 if config.variant == "plain" else depth - 2
    # one index serves every level fixed here and the greedy finalize
    index = None
    if last_fixed >= 0 or config.finalize_strategy == "greedy":
        index = _CrossingIndex(padded, assignment)
    gamma = 1.0
    for level in range(0, last_fixed + 1):
        outcome = None
        for relax in config.relax_ladder:
            try:
                outcome = fix_level(padded, index, assignment, level, gamma, config, relax)
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

    prestretch, ranks = finalize(padded, assignment, config, report, index)
    del index  # not held through the replays
    trace = simulate(instance, prestretch, capacity=report.load)
    report.makespan_prestretch = trace.makespan
    if trace.max_load > report.load:
        raise FixerError("pre-stretch load exceeds the certified bound", report)
    report.prestretch_max_edge_wait = trace.max_edge_wait

    final_schedule = stretch(prestretch, report.load, ranks)
    del ranks
    # at load 1 `stretch` hands back the pre-stretch schedule, replayed
    # already; else its trace goes before the capacity-1 replay, so a run
    # holds one trace at a time
    if final_schedule is not prestretch:
        del trace
        trace = simulate(instance, final_schedule, capacity=1)
    if trace.max_load > 1:
        raise FixerError("stretched schedule is not capacity-1 feasible", report)
    report.makespan = trace.makespan

    return PipelineResult(
        padded=padded,
        assignment=assignment,
        report=report,
        prestretch=prestretch,
        schedule=final_schedule,
    )
