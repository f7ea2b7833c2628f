"""Random-delay waiting policies over a dissection, and their exact statistics.

Plain policy: each block draws x uniform in [1, budget]; the packet waits x
slots at the block's first node and budget - x at its last node. Crossing
slot of position j is then

    j + sum over levels of (full blocks before j) * budget + x(containing block).

Shifted (buffered) policy: the top level's draw is served entirely at the
source; every sublevel block spreads its budget over designated edges (one
slot of waiting immediately before each of the first x and the last
budget - x duty edges), so away from sources packets never wait more than
one slot per edge.

Everything here is exact: a residual law counts, in integers, the draw
combinations that give each delay. Every budget is a power of two, so the
probabilities `crossing_distribution` derives from those counts are exact
floats.

A `DelayAssignment` carries the tree its draws are over, and every crossing
slot and law reads that tree (`assignment.tree`): no function takes a tree
beside an assignment, so the two cannot disagree.

This module alone reads the per-level delay tables. What depends on the
position alone and every run reads is derived here once per tree, on first
read, and kept on it as shared tuples: `tree.columns` and `tree.laws`.
"""
from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from math import prod
from itertools import repeat
from operator import add, getitem, itemgetter
from typing import NamedTuple

from .dissection import Block, BlockTree, ShiftedBlockTree
from .instance import PaddedInstance

Tree = BlockTree | ShiftedBlockTree


class AssignmentError(ValueError):
    pass


class DelayAssignment:
    """Waiting values per (packet, level, block), fixed level by level.

    A level is either fully fixed (every packet, every block) or fully open;
    `frontier` is the first open level. The tree, and the position columns
    `fixed_slots` reads from it, are shared read-only by every assignment
    on the same ladder and variant; only `values` belongs to this one.
    """

    def __init__(self, tree: Tree, n_packets: int):
        self.tree = tree
        self.n_packets = n_packets
        counts = [tree.n_blocks(level) for level in range(len(tree.ladder.levels))]
        self.values: list[list[list[int | None]]] = [
            [[None] * n for n in counts] for _ in range(n_packets)
        ]
        self.frontier = 0

    @property
    def n_levels(self) -> int:
        return len(self.tree.ladder.levels)

    def value(self, packet: int, level: int, block: int) -> int | None:
        return self.values[packet][level][block]

    def set_level(self, level: int, per_packet: list[list[int]]) -> None:
        if level != self.frontier:
            raise AssignmentError(f"level {level} set out of order (frontier {self.frontier})")
        budget = self.tree.ladder.levels[level].wait_budget
        if len(per_packet) != self.n_packets:
            raise AssignmentError("value matrix has wrong packet count")
        n_blocks = self.tree.n_blocks(level)
        # the whole matrix is checked before any row is written; a row is
        # searched for its first bad value only when its range is bad
        for packet, row in enumerate(per_packet):
            if len(row) != n_blocks:
                raise AssignmentError(f"packet {packet}: wrong block count at level {level}")
            if min(row) < 1 or max(row) > budget:
                v = next(v for v in row if not 1 <= v <= budget)
                raise AssignmentError(f"value {v} outside [1, {budget}] at level {level}")
        for values, row in zip(self.values, per_packet):
            values[level] = list(row)
        self.frontier = level + 1

    def fill_remaining(self, value: int = 1) -> None:
        while self.frontier < self.n_levels:
            row = [value] * self.tree.n_blocks(self.frontier)
            self.set_level(self.frontier, [row] * self.n_packets)

    @property
    def fully_fixed(self) -> bool:
        return self.frontier == self.n_levels

    def fixed_slots(
        self, packet: int, levels: int, base: Sequence[int] | None = None, positions: Sequence[int] | None = None
    ) -> Sequence[int]:
        """The packet's slot at every position, shifted by its draws on the first `levels` levels.

        Entry p is `base[p]` plus those draws' delays at edge position
        p + 1, summed a level at a time over the tree's columns. `base` is
        the tree's `columns.offsets` unless given. With `positions` (position
        indices p) the slots are those at the given positions alone, in
        their order: entry i is what entry `positions[i]` of the full list
        would be. With `levels` 0 and no `positions` it is `base` itself,
        shared and read-only.
        """
        columns, values = self.tree.columns, self.values[packet]
        slots = columns.offsets if base is None else base
        if positions is not None:
            slots = list(map(slots.__getitem__, positions))
        for level in range(levels):
            blocks, table = columns.blocks[level], columns.tables[level]
            if positions is not None:
                blocks = map(blocks.__getitem__, positions)
                table = None if table is None else map(table.__getitem__, positions)
            delays = map(values[level].__getitem__, blocks)
            if table is not None:
                delays = map(getitem, table, map((-1).__add__, delays))
            slots = list(map(add, slots, delays))
        return slots


# --- per-level crossing contributions --------------------------------------

def duty_count_table(block: Block, budget: int, pos: int) -> tuple[int, ...]:
    """For a shifted block: waits landing at positions <= pos, per draw x.

    The packet waits on the first x and the last budget - x duty edges of the
    block; entry x-1 counts how many of those fall at or before `pos`.
    """
    known = bisect_right(block.assigned, pos)
    total = len(block.assigned)
    return tuple(
        min(x, known) + max(0, known - total + budget - x) for x in range(1, budget + 1)
    )


def _contribution(tree: Tree, level: int, pos: int) -> tuple[int, tuple[int, ...] | None]:
    """(deterministic offset, per-draw delay table) of one level at position pos.

    A table of None means the delay equals the draw itself (plain levels and
    the shifted tree's source level).
    """
    lv = tree.ladder.levels[level]
    idx = tree.block_index(level, pos)
    table = None
    if tree.kind != "plain" and level > 0:
        table = duty_count_table(tree.blocks(level)[idx], lv.wait_budget, pos)
    return idx * lv.wait_budget, table


class PositionColumns(NamedTuple):
    """What the dissection alone decides about each edge position, as columns.

    Entry p describes edge position p + 1. A crossing slot there is
    `offsets[p]`, the position plus every level's deterministic offset,
    plus, per level, the delay that level's draw for block `blocks[level][p]`
    adds through `tables[level][p]`; nothing here depends on the packet.
    A tree's columns (`tree.columns`) are built once, on first read, and
    shared by every run on that tree, so every column is a tuple.
    """

    offsets: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]  # per level: the containing block
    tables: tuple[tuple[tuple[int, ...], ...] | None, ...]  # per level: delay per draw; None where it is the draw
    least: tuple[int, ...]  # the earliest slot under any draws
    most: tuple[int, ...]  # the latest
    draw_one: tuple[tuple[int, ...], ...]  # per level l, and one past the last: offsets plus levels l..'s draw-1 delays


def position_columns(tree: Tree) -> PositionColumns:
    """Every position's terms, a level at a time, from `_contribution`."""
    positions = range(1, tree.length + 1)
    offsets: Sequence[int] = positions
    blocks, tables = [], []
    for level in range(len(tree.ladder.levels)):
        dets, level_tables = zip(*(_contribution(tree, level, pos) for pos in positions))
        offsets = list(map(add, offsets, dets))
        blocks.append(tuple(tree.block_index(level, pos) for pos in positions))
        tables.append(None if level_tables[0] is None else level_tables)
    least = most = offsets = tuple(offsets)
    draw_one = [offsets]
    for lv, table in zip(tree.ladder.levels[::-1], tables[::-1]):
        if table is None:  # the delay is the draw, 1 .. budget
            low, high, first = repeat(1), repeat(lv.wait_budget), repeat(1)
        else:
            low, high, first = map(min, table), map(max, table), map(itemgetter(0), table)
        least, most = tuple(map(add, least, low)), tuple(map(add, most, high))
        draw_one.append(tuple(map(add, draw_one[-1], first)))
    return PositionColumns(offsets, tuple(blocks), tuple(tables), least, most, tuple(draw_one[::-1]))


class LevelLaws(NamedTuple):
    """Per position p (edge position p + 1), what is still random while one level is fixed and deeper ones open."""

    alike: tuple[int, ...]  # the first position whose tables here and deeper are p's, so its laws too
    delays: tuple[tuple[int, ...], ...]  # the delay each draw adds: 0 at draw 0, the variable open
    weighted: tuple[tuple[tuple[int, int], ...], ...]  # the deeper levels' `residual_law`, (delay, budget * count)
    offsets: tuple[frozenset[int], ...]  # the delays of that law
    ceiling: tuple[int, ...]  # per block, the largest count of that law over its positions


def level_laws(tree: Tree) -> tuple[LevelLaws, ...]:
    """Every level's `LevelLaws` (`tree.laws`); laws are told apart in position order."""
    columns, result = tree.columns, []
    for level, lv in enumerate(tree.ladder.levels):
        budget = lv.wait_budget
        identity = tuple(range(budget + 1))
        laws: dict[tuple, tuple] = {}
        per_position = []
        deeper = (repeat(None) if t is None else t for t in columns.tables[level:])
        for p, key in zip(range(tree.length), zip(*deeper)):
            if key not in laws:
                tail = residual_law(tree, level + 1, p + 1)
                laws[key] = (
                    p,
                    identity if key[0] is None else (0, *key[0]),
                    tuple((dt, budget * count) for dt, count in tail),
                    frozenset(dt for dt, _ in tail),
                    max(count for _, count in tail),
                )
            per_position.append(laws[key])
        alike, delays, weighted, offsets, tops = zip(*per_position)
        ceiling = [0] * tree.n_blocks(level)
        for b, top in zip(columns.blocks[level], tops):
            ceiling[b] = max(ceiling[b], top)
        result.append(LevelLaws(alike, delays, weighted, offsets, tuple(ceiling)))
    return tuple(result)


def level_blurs(tree: Tree, level: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Per position, the `residual_law` of `level` and the deeper ones, once per `alike` class."""
    alike = tree.laws[level].alike
    once = {p: tuple(residual_law(tree, level, p + 1)) for p in dict.fromkeys(alike)}
    return tuple(map(once.__getitem__, alike))


def residual_law(tree: Tree, from_level: int, pos: int) -> list[tuple[int, int]]:
    """Law of the delay that levels from_level.. add at pos while all are open.

    Open levels are independent uniform draws, so the law is the convolution
    of their per-level delay laws. Returns (delay, count) pairs in ascending
    delay order: a count is the number of draw combinations giving that
    delay, so the counts sum to the product of the open budgets. It depends
    on the position only.
    """
    tables = tree.columns.tables
    law = {0: 1}
    for level in range(from_level, len(tree.ladder.levels)):
        table = tables[level]
        draws = range(1, tree.ladder.levels[level].wait_budget + 1)
        level_law = Counter(draws if table is None else table[pos - 1])
        new: dict[int, int] = {}
        for t, c in law.items():
            for d, k in level_law.items():
                new[t + d] = new.get(t + d, 0) + c * k
        law = new
    return sorted(law.items())


def crossing_time(assignment: DelayAssignment, packet: int, pos: int) -> int:
    """Slot in which `packet` crosses edge position `pos` (fully fixed only)."""
    if not assignment.fully_fixed:
        raise AssignmentError("assignment incomplete: crossing_time needs all levels fixed")
    return assignment.fixed_slots(packet, assignment.n_levels)[pos - 1]


def crossing_distribution(assignment: DelayAssignment, packet: int, pos: int) -> dict[int, float]:
    """Exact law of the crossing slot given the fixed prefix of levels.

    The open levels' residual law, shifted by everything already determined.
    """
    tree, frontier = assignment.tree, assignment.frontier
    law = residual_law(tree, frontier, pos)
    total = sum(c for _, c in law)
    base = assignment.fixed_slots(packet, frontier)[pos - 1]
    return {base + t: c / total for t, c in law}


def expected_load(padded: PaddedInstance, assignment: DelayAssignment) -> dict[tuple[str, int], float]:
    """Conditional expected number of crossings per (edge, slot).

    Sum of independent per-packet crossing laws, each the position's
    `crossing_distribution`: the open levels' law, computed once per
    position, shifted by the packet's fixed slot there. With nothing fixed
    this never exceeds 1 because padding guarantees congestion <= path
    length.
    """
    tree, frontier = assignment.tree, assignment.frontier
    laws = [residual_law(tree, frontier, pos) for pos in range(1, tree.length + 1)]
    total = prod(lv.wait_budget for lv in tree.ladder.levels[frontier:])
    table: dict[tuple[str, int], float] = {}
    for packet, path in enumerate(padded.padded.paths):
        for edge_id, base, law in zip(path, assignment.fixed_slots(packet, frontier), laws):
            for t, c in law:
                key = (edge_id, base + t)
                table[key] = table.get(key, 0.0) + c / total
    return table
