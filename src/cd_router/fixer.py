"""Turning random waiting into concrete schedules, level by level.

`run_pipeline` decides every level's draws. It pins levels 0 .. the last
fixed one so that no (edge, slot) cell's conditional expected load exceeds
the running target plus a per-level slack: by a resampling loop that
redraws exactly the variables a bad cell depends on, the default, or by a
greedy min-max sweep. The expected loads are exact integers, held per level
by `_LevelWorkspace`, whose docstring gives their layout. The levels after
the last fixed one stay open, and `finalize` takes them at draw 1.

`finalize` only realizes and delivers. It builds each packet's crossing
slots once, open levels at draw 1, turns those at its real positions into
waits (`waits_from_slots`, the inverse of `Schedule.crossing_slots`), ranks
the crossings from the same slot lists (`realized_loads`: how many packets
of lower id share each crossing's (edge, slot) cell, counted per edge in
an {edge: {slot: crossings}} table, so no key is made per crossing),
certifies the integral load c = 1 + the largest rank against the counting bound
c <= gamma * prod(residual budgets), and hands the slots and ranks to
`stretch`, which expands every slot into c slots to give a capacity-1
schedule. It reads the pre-stretch figures without a replay: the makespan
is the largest last real slot, and the largest per-edge wait is the
simulator's own charge (`waits_by_packet`). It returns the pre-stretch and
the stretched schedule, so the slot lists are dropped before
`run_pipeline`'s one replay, the capacity-1 check of the stretched
schedule, and no schedule is asked for its crossing slots again. That
check also covers the certified load: ranks lie in 0 .. c - 1, so a cell
holding more than c crossings puts two of them in one stretched slot.

What is still random about a crossing depends on its position alone: the
dissection and its per-position columns (`tree.columns`) are shared by every
run on a ladder and variant, and a packet's fixed draws become its slot at
every position in one column-wise pass (`DelayAssignment.fixed_slots`). An
open level's draw 1 is a column too, so the levels `finalize` leaves at
draw 1 are one per-run column, and a packet that fixed no level reads it
without any work of its own.
Every slot and crossing law here reads the assignment's tree
(`assignment.tree`); no function takes the tree a second time. The
crossings that share an edge, and every slot they could reach at any
level, are indexed once per run (`_CrossingIndex`), and twin edges, whose
crossings move alike at every level the run fixes, share one row of
expected loads. A level's workspace is built over the crossings of the
edges that hold a row alone.
"""
from __future__ import annotations

import logging
import random
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain, compress, count, pairwise, repeat
from math import floor, inf, prod
from operator import add, eq, getitem, itemgetter, sub
from typing import ClassVar

from .delay_model import AssignmentError, DelayAssignment, Tree, residual_law
from .dissection import build_ladder, dissect_plain, dissect_shifted
from .instance import Instance, PaddedInstance, pad, require_int, stats  # noqa: F401  (perfbench/tracing.py patches fixer.stats)
from .schedule import Schedule, waits_from_slots
from .simulator import max_charge, simulate, waits_by_packet

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
    seed: int | str = 0
    # the resampling loop's bounds: redraws per attempt, one attempt per
    # relax factor (the benchmark's count hook reads `restart_budget`); the
    # relax factors scale the slack, tried in this order
    resample_budget: ClassVar[int] = 1_000
    restart_budget: ClassVar[int] = 1
    relax_ladder: ClassVar[tuple[float, ...]] = (1.0, 2.0, 4.0, 8.0)

    def slack(self, block_len: int, relax: float) -> float:
        return relax * block_len ** (-1 / 32 if self.variant == "plain" else -1 / 64)


def _validated(config: FixerConfig) -> None:
    if config.variant not in ("plain", "buffered"):
        raise ValueError(f"unknown variant {config.variant!r}")
    if config.strategy not in ("resample", "greedy"):
        raise ValueError(f"unknown strategy {config.strategy!r}")
    if type(config.delta) is not int:  # a float or bool would run, and reach the report
        raise ValueError(f"delta must be an integer, got {config.delta!r}")
    if config.delta < 2:
        raise ValueError(f"delta must be at least 2, got {config.delta}")
    # the seed is formatted into every RNG tag, so any value would run
    if type(config.seed) not in (int, str):
        raise ValueError(f"seed must be an integer or a string, got {config.seed!r}")


@dataclass(frozen=True)
class LevelFix:
    level: int
    relax: float
    slack: float
    gamma_before: float
    gamma_after: float
    achieved: float
    resamples: int
    restarts: int  # always 0: one attempt per relax factor
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

@lru_cache(maxsize=32)  # as many trees as `dissect_plain` and `dissect_shifted` keep together
def _position_classes(tree: Tree, levels: int) -> tuple[int, ...]:
    """Per position, its class: positions alike in their block at each of the
    first `levels` levels and in their delay table at every level.
    """
    columns = tree.columns
    ids: dict[tuple, int] = {}
    keys = zip(*columns.blocks[:levels], *filter(None, columns.tables))
    return tuple(ids.setdefault(key, len(ids)) for key in keys)


class _CrossingIndex:
    """The crossings of shared edges, and every slot they can reach: what no level changes.

    Pinning a level only narrows what is still random, so which crossings
    share an edge, and every slot each could reach under any draws, are
    known before level 0 is fixed. `run_pipeline` builds one index when it
    fixes a level, and hands it to every level's workspace, relax attempts
    included. The index serves levels 0 .. `levels` - 1, the ones the run
    fixes.

    Two shared edges are twins when their crossings match one for one in
    packet, position class (`_position_classes`) and offset from the
    edge's `lo`. Then every level served gives their crossings the same
    variables, bases and laws, so their rows are equal cell for cell, and
    a class of twins keeps one row: on a shared path under the plain tree,
    one per block of the deepest level served.

    `edges[r]` is row r's edge, the least of its class, in ascending edge
    id order; `row_of[e]` is (row, `lo`) of every shared edge e. The
    index is built in one pass over the shared crossings, which groups
    their twin codes by edge and keeps each edge's reach; past the build,
    beside one mask per packet, it keeps lists as long as the items alone.
    The items are the crossings of the edges that hold a row: `items[k]`
    masks packet k's real positions on such an edge.
    Items go in packet order and, within a packet, in position order:
    item i is `rows[i]` and `pos[i]` (position index p, for edge position
    p + 1), and packet k's are items `first[k]` .. `first[k + 1]` - 1.
    `by_row[r]`, row r's items, is built on first read from `rows`; only
    resampling reads it.

    Row r spans slots `lo[r]` .. `lo[r] + widths[r] - 1`, the ladder-wide
    reach of its items: each position's offset plus the least and the
    largest delay of the whole ladder. At level 0 that is exactly the reach
    under any draw; a deeper level reaches a subset, so its rows only hold
    more cells that stay 0.

    `ints` is one int object per value, 0 upward, extended by each
    workspace to its variable count: `pos` and every workspace's `var`
    refer to these instead of minting an int per item.
    """

    def __init__(self, padded: PaddedInstance, assignment: DelayAssignment, levels: int):
        tree, columns = assignment.tree, assignment.tree.columns
        self.length, self.levels = padded.length, levels
        shared = sorted(e for e, load in padded.stats.edge_loads.items() if load > 1)
        number = {e: n for n, e in enumerate(shared)}
        paths = padded.base.paths
        self.ints = ints = list(range(padded.length))
        # a level delays by its table, or by its draw 1 .. budget where it has none
        least = most = columns.offsets
        for lv, table in zip(tree.ladder.levels, columns.tables):
            if table is None:
                least = [t + 1 for t in least]
                most = [t + lv.wait_budget for t in most]
            else:
                least = list(map(add, least, map(min, table)))
                most = list(map(add, most, map(max, table)))
        # an edge's key is one int per crossing, packet * stride + class *
        # span + its offset from the edge's lo: an offset and a lo differ by
        # less than max(least), half of span, and stride is span times the
        # classes, so two such ints are equal only if all three are
        classes = _position_classes(tree, levels)
        span = 2 * max(least)
        place = [span * c + offset for c, offset in zip(classes, columns.offsets)]
        stride = span * (max(classes) + 1)
        # one pass over the shared crossings: each edge's codes, and the slots they reach
        codes: list[list[int]] = [[] for _ in shared]
        lo = [inf] * len(shared)
        hi = [-inf] * len(shared)
        for packet, path in zip(count(0, stride), paths):
            mask = list(map(number.__contains__, path))
            for n, p in zip(map(number.__getitem__, compress(path, mask)), compress(ints, mask)):
                codes[n].append(packet + place[p])
                if least[p] < lo[n]:
                    lo[n] = least[p]
                if most[p] > hi[n]:
                    hi[n] = most[p]
        heads: dict[tuple, int] = {}  # the least edge of each key
        head = [heads.setdefault(tuple([c - a for c in code]), n) for n, (code, a) in enumerate(zip(codes, lo))]
        keep = list(map(eq, head, count()))  # edge n is the least of its key, so holds its row
        row_at = list(accumulate(keep, initial=0))  # rows before edge n's
        self.edges = list(compress(shared, keep))
        self.lo = list(compress(lo, keep))
        self.widths = [b - a + 1 for a, b in zip(self.lo, compress(hi, keep))]
        self.row_of = dict(zip(shared, zip(map(row_at.__getitem__, head), lo)))
        holds = dict(zip(self.edges, count()))  # an edge that holds a row: its row
        self.items = [list(map(holds.__contains__, path)) for path in paths]
        at = [list(compress(ints, mask)) for mask in self.items]
        self.first = list(accumulate(map(len, at), initial=0))
        self.pos = list(chain.from_iterable(at))
        self.rows = list(map(holds.__getitem__, chain.from_iterable(map(compress, paths, self.items))))

    @cached_property
    def by_row(self) -> list[list[int]]:
        by_row: list[list[int]] = [[] for _ in self.edges]
        for i, r in enumerate(self.rows):
            by_row[r].append(i)
        return by_row


class _LevelWorkspace:
    """Y(edge, slot) as a function of this level's draws, updated in place.

    Y is held in exact integers, in units of 1/`scale`. A `blurred`
    workspace, which the greedy sweep builds, can hold open variables: its
    `scale` is the product of the budgets of this level and of every deeper
    level, and each crossing adds its deeper law at `weight` = `budget`.
    One that resampling builds holds every crossing at a draw: its `scale`
    is the product of the deeper budgets alone, and `weight` is 1, so its
    cells are small counts (at most the deeper budgets' product per
    crossing). Every budget is a power of two, so both units give the same
    bad cells and the same maximum over `scale`. Y is a list of slot rows,
    one per class of twin edges that two or more padded paths use, laid out
    by the run's `_CrossingIndex`: cell (index.edges[r], index.lo[r] + i) is
    `y[r][i]`, and so is the cell i slots after its own `lo` of every twin
    of that edge (`index.row_of`). Every level's rows have the same `lo` and
    length. A level the index does not serve is refused: its twins could
    differ.

    Item i, a (packet, position) crossing of an edge that holds a row, is
    four flat ints: `rows[i]` and `pos[i]` from the index, `bases[i]` (its
    slot before this level's delay, relative to its row's `lo`) and
    `var[i]` (packet * n_blocks + block, the variable whose draw moves it).
    `bases` and `var` are built for the items alone, a packet at a time,
    from its slots at its item positions (`DelayAssignment.fixed_slots`
    with `positions`), so a level's build follows its items, not every
    (packet, position). Items go in packet order and, within a packet, in
    position order, and a block index never falls as the position grows,
    so a variable's items are contiguous: `by_var[v]` is a range, found by
    bisection.

    A draw is 1 .. `budget`, and draw 0 means the variable is still open,
    which only a blurred workspace takes.
    What is still random is a function of the position alone, so it is held
    once per position, and computed once per distinct law: the delay of
    draw d, `delays[p][d]` (0 at draw 0); the law of the deeper open levels
    at `weight`, `weighted[p]`, as (offset, value) pairs; its offsets
    as a set, `offsets[p]`; and, on first read, which only the greedy sweep
    makes, the law of this level and the deeper ones, `blurs[p]`, which is
    what an open variable adds at its base slot. A packet's fixed draws only
    shift `bases`. A bad cell's dependents are found through
    the index's `by_row`: an item is one when the cell's offset from its
    slot is in `offsets[p]`.

    Y has three writers. `fill` adds every item at its draw into a zero Y.
    `spread` adds (sign +1) or takes off (-1) one variable's items at one
    draw, each at its blur at draw 0. `move` redraws a variable, and the
    resampling loop skips it when the redraw repeats the old draw.

    `spread`, `move` and `peak` walk the variable's plan, `plans[var]`,
    which the first of them to touch the variable builds and which is kept
    for the workspace's life; a level that needs no resample builds none.
    A plan groups the variable's items by position class (`alike`): each
    group holds the class, its `delays` row and `weighted` law (at draw 0
    `spread` reads the class's blur instead), and two parallel lists, the
    Y row of each item and its base slot. On a level where every position
    shares one class, a plan is one group, built without a per-item loop.
    A write is then one tight loop over a group's items per law entry, and
    a probe one C-level `max` per law entry.

    An edge that one packet uses gets no row, nor does a dummy position: it
    holds a single item at `weight`, so none of its cells exceeds `scale`,
    and the limit `floor(target * scale)` has target > 1. Its largest cell
    is `weight` times the largest count of its deeper law. `ceiling[b]` is
    the largest such count over every position of block b, and `peak`,
    `max_y` and `first_bad_cell` take `weight` times it into their maximum.
    That the shared positions count too changes none of them: Y is never
    negative, so an added shared item's own cells hold at least `weight`
    times its law's counts. For a variable with no shared item, whose plan
    is empty, the ceiling is all that `peak` reads.

    The first bad cell is in the first row whose maximum exceeds the limit.
    The built-in `max` scans a row far faster than a heap or per-row maxima
    could be kept up to date on every write, so neither is kept; when no
    row is bad, the row maxima read on the way are max Y, so a level that
    needs no resample scans Y once.
    """

    def __init__(
        self, index: _CrossingIndex, assignment: DelayAssignment, level: int, blurred: bool = True
    ):
        if level >= index.levels:  # twins are twins only at the levels the index serves
            raise ValueError(f"the index serves levels 0 .. {index.levels - 1}, not level {level}")
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
        self.one_class = len(laws) == 1
        block_of = columns.blocks[level]
        self.ceiling = ceiling = [0] * n_blocks
        for b, top in zip(block_of, tops):
            if top > ceiling[b]:
                ceiling[b] = top
        self.unshared_max = weight * max(ceiling)
        n_vars = len(index.items) * n_blocks
        ints = index.ints
        ints.extend(range(len(ints), n_vars))
        bases, var = [], []
        for packet, (a, b) in enumerate(pairwise(index.first)):
            positions, first = index.pos[a:b], packet * n_blocks
            bases.extend(assignment.fixed_slots(packet, level, None, positions))
            var.extend(map(ints[first:first + n_blocks].__getitem__, map(block_of.__getitem__, positions)))
        self.var = var
        self.bases = list(map(sub, bases, map(index.lo.__getitem__, index.rows)))
        bounds = [bisect_left(var, v) for v in range(n_vars + 1)]
        self.by_var = [range(a, b) for a, b in pairwise(bounds)]
        self.y: list[list[int]] = [[0] * width for width in index.widths]
        self.plans: list[list[tuple] | None] = [None] * n_vars

    def fill(self, draws: list[int]) -> None:
        """Add every item's law at `weight`, given the draws per variable, into a zero Y."""
        y, delays, weighted = self.y, self.delays, self.weighted
        for r, base, p, v in zip(self.rows, self.bases, self.pos, self.var):
            row = y[r]
            slot0 = base + delays[p][draws[v]]
            for dt, value in weighted[p]:
                row[slot0 + dt] += value

    def _plan(self, var: int) -> list[tuple]:
        """Build and keep the variable's plan: its items grouped by position class."""
        items = self.by_var[var]
        a, b = items.start, items.stop
        rows = list(map(self.y.__getitem__, self.rows[a:b]))
        if self.one_class:
            groups = {self.alike[0]: (rows, self.bases[a:b])} if rows else {}
        else:
            alike = self.alike
            groups = {}
            for row, base, p in zip(rows, self.bases[a:b], self.pos[a:b]):
                group = groups.get(alike[p])
                if group is None:
                    group = groups[alike[p]] = ([], [])
                group[0].append(row)
                group[1].append(base)
        plan = self.plans[var] = [
            (p, self.delays[p], self.weighted[p], *group) for p, group in groups.items()
        ]
        return plan

    def spread(self, var: int, draw: int, sign: int) -> None:
        """Add (`sign` +1) or take off (-1) the variable's items at `draw`.

        Each item adds its law at `weight`, or its blur while the variable
        is open (draw 0), which only a blurred workspace takes.
        """
        blurs = self.blurs if draw == 0 else None
        plan = self.plans[var]
        if plan is None:
            plan = self._plan(var)
        for p, at, law, rows, bases in plan:
            slot = at[draw]
            for dt, value in law if blurs is None else blurs[p]:
                slot_dt, value = slot + dt, sign * value
                for row, base in zip(rows, bases):
                    row[base + slot_dt] += value

    def move(self, var: int, old: int, new: int) -> None:
        """Redraw one variable: move its items' laws, at `weight`, from draw `old` to `new`."""
        plan = self.plans[var]
        if plan is None:
            plan = self._plan(var)
        for _, at, law, rows, bases in plan:
            gone, come = at[old], at[new]
            for dt, value in law:
                gone_dt, come_dt = gone + dt, come + dt
                for row, base in zip(rows, bases):
                    row[base + gone_dt] -= value
                    row[base + come_dt] += value

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
        plan = self.plans[var]
        if plan is None:
            plan = self._plan(var)
        peak = self.weight * self.ceiling[var % self.n_blocks]
        for _, at, law, rows, bases in plan:
            slot = at[draw]
            for dt, value in law:
                top = max(map(getitem, rows, map((slot + dt).__add__, bases))) + value
                if top > peak:
                    peak = top
        return peak

    def max_y(self) -> int:
        return max(self.unshared_max, max(map(max, self.y), default=0))

    def first_bad_cell(self, limit: int) -> tuple[tuple[int, int] | None, int]:
        """(row, index) of the least (edge id, slot) cell above `limit`, and a maximum.

        The least is over every shared edge: a twin's cells are its row's,
        and the row's edge is the least of its class, so a bad twin comes
        after its row's edge. The scan stops at the first bad row, whose
        maximum comes second; with no bad cell it reads every row, and max
        Y comes second.
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
) -> tuple[list[list[int]], int, int]:
    """Moser-Tardos style: redraw the variables behind the first bad cell.

    One attempt on a freshly built workspace: fill at random draws, then
    resample at most `resample_budget` times. Returns (draws, max Y,
    resamples); when the attempt fails, max Y is that of its last draws,
    and it exceeds `limit`. The stream is tagged `restart0`, the tag it
    has always had, so every draw stays the same.
    """
    rng = random.Random(f"{config.seed}/{seed_tag}/restart0")
    move, budget = ws.move, ws.budget
    draws = [rng.randint(1, budget) for _ in range(len(ws.by_var))]
    ws.fill(draws)
    for resamples in range(config.resample_budget + 1):
        cell, peak = ws.first_bad_cell(limit)
        if cell is None:
            return ws.per_packet(draws), peak, resamples
        if resamples == config.resample_budget:
            break
        for var in ws.dependents(cell, draws):
            old = draws[var]
            new = rng.randint(1, budget)
            if new != old:  # a repeated draw leaves Y as it is
                draws[var] = new
                move(var, old, new)
    return ws.per_packet(draws), ws.max_y(), resamples


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
    maximum achieved) when one attempt of `resample_budget` resamples, or
    the greedy sweep, misses the target. Resampling holds every
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
        draws, peak, resamples = _resample_fix(ws, limit, config, f"fix/level{level}/relax{relax}")
    else:
        (draws, peak), resamples = _greedy_fix(ws), 0
    achieved = peak / ws.scale
    if peak > limit:
        raise FixerError(
            f"level {level}: budget exhausted at relax {relax} "
            f"(achieved {achieved:.6f} vs target {target:.6f})"
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
        restarts=0,
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


def realized_loads(instance: Instance, slots: list[Sequence[int]]) -> list[list[int]]:
    """Per packet and crossing, how many packets of lower id cross the same edge at the same slot.

    `slots[k]` holds packet k's crossing slots, one per edge of its path;
    entries past the path's end are not read. The crossings are counted per
    edge, {edge: {slot: crossings so far}}, so no key is made per crossing.
    An (edge, slot) cell holding k crossings ranks them 0 .. k - 1 in packet
    order, so the realized load is 1 + the largest rank.
    """
    seen: dict[str, dict[int, int]] = {edge.id: {} for edge in instance.edges}
    ranks = []
    for path, packet_slots in zip(instance.paths, slots):
        rank = []
        for edge, slot in zip(path, packet_slots):
            cells = seen[edge]
            r = cells.get(slot, 0)
            cells[slot] = r + 1
            rank.append(r)
        ranks.append(rank)
    return ranks


def unpad_schedule(padded: PaddedInstance, schedule: Schedule) -> Schedule:
    """Strip dummy suffixes, leaving motion on real edges: the reference for `finalize`'s waits."""
    waits = []
    for packet, m in enumerate(padded.original_lengths):
        waits.append(schedule.waits[packet][:m] + [0])
    return Schedule(waits=waits)


def stretch(
    schedule: Schedule, slots: list[Sequence[int]], load: int, ranks: list[list[int]]
) -> Schedule:
    """Expand each slot into `load` slots; sharers are ordered by packet id.

    `slots` are the schedule's crossing slots, as `realized_loads` reads
    them, and `ranks` what it made of them. A crossing at slot t with rank r
    lands at load*(t-1) + 1 + r, so every original (edge, slot) group
    spreads over the window [load*t-load+1, load*t] collision-free while
    crossings stay strictly increasing along each path. At load 1 it hands
    back `schedule` itself. `load` must be an `int` of at least 1.
    """
    require_int("load", load, 1)
    if load == 1:
        return schedule
    return Schedule(waits=[
        waits_from_slots([load * (t - 1) + 1 + r for t, r in zip(packet_slots, rank)], 0)
        for packet_slots, rank in zip(slots, ranks)
    ])


def finalize(
    padded: PaddedInstance, assignment: DelayAssignment, report: FixReport
) -> tuple[Schedule, Schedule]:
    """Realize the draws, certify the counting bound, and stretch to capacity 1.

    Returns the pre-stretch and the stretched schedule, on the real paths.
    Each packet's crossing slots over its padded path are built once, and
    `realized_loads` and `stretch` read the same lists, which never leave
    here. Dummy positions are private and never raise a rank, so the real
    paths, each a prefix of its padded one, give the load. The residual is
    the levels after the assignment's frontier, the ones the fixer left open.
    The report's pre-stretch figures come from here too, with no replay:
    the makespan is the largest last real slot, and the largest per-edge
    wait is the simulator's charge on the pre-stretch schedule.

    The open levels take draw 1, whose delay depends on the position alone,
    so they are one column for the run; each packet adds only its fixed
    levels, and one with none is the column itself. The slots and budgets
    read the assignment's tree.
    """
    tree = assignment.tree
    fixed = assignment.frontier
    open_levels = tuple(range(fixed, assignment.n_levels))
    residual = prod(tree.ladder.levels[level].wait_budget for level in open_levels)
    assignment.fill_remaining(1)
    # draw 1 delays by a table's first entry, or by 1 where a level has none
    column = tree.columns.offsets
    for table in tree.columns.tables[fixed:]:
        column = list(map(add, column, repeat(1) if table is None else map(itemgetter(0), table)))
    budget = tree.ladder.total_wait_budget()
    slots, waits = [], []
    for packet, m in enumerate(padded.original_lengths):
        packet_slots = assignment.fixed_slots(packet, fixed, column)
        # plain policy conserves its waiting budget exactly: the waits before
        # the last padded crossing, plus what is parked at the sink
        if tree.kind == "plain":
            got = packet_slots[-1] - padded.length + _parking(tree, assignment.values[packet])
            if got != budget:
                raise FixerError(f"packet {packet}: waiting {got} != budget {budget}", report)
        slots.append(packet_slots)
        waits.append(waits_from_slots(packet_slots[:m], 0))
    schedule = Schedule(waits=waits)
    ranks = realized_loads(padded.base, slots)
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
    report.makespan_prestretch = max(packet_slots[m - 1] for packet_slots, m in zip(slots, padded.original_lengths))
    report.prestretch_max_edge_wait = max_charge(waits_by_packet(padded.base, schedule))
    return schedule, stretch(schedule, slots, load, ranks)


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
    """pad -> dissect -> fix levels (relax ladder) -> finalize (open levels at draw 1, stretches) -> verify."""
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
    # one index serves every level fixed here
    index = _CrossingIndex(padded, assignment, last_fixed + 1) if last_fixed >= 0 else None
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
    del index  # not held through finalize and the capacity-1 replay

    prestretch, final_schedule = finalize(padded, assignment, report)
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
