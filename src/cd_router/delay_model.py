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

Everything here is exact: distributions are small dicts of dyadic rationals,
so float arithmetic introduces no rounding at the supported sizes.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .dissection import Block, BlockTree, ShiftedBlockTree
from .instance import PaddedInstance

Tree = BlockTree | ShiftedBlockTree
Distribution = dict[int, float]
LoadTable = dict[tuple[str, int], float]


class AssignmentError(ValueError):
    pass


class DelayAssignment:
    """Waiting values per (packet, level, block), fixed level by level.

    A level is either fully fixed (every packet, every block) or fully open;
    `frontier` is the first open level.
    """

    def __init__(self, tree: Tree, n_packets: int):
        self.tree = tree
        self.n_packets = n_packets
        self.values: list[list[list[int | None]]] = [
            [[None] * tree.n_blocks(level) for level in range(len(tree.ladder.levels))]
            for _ in range(n_packets)
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
        for packet, row in enumerate(per_packet):
            if len(row) != self.tree.n_blocks(level):
                raise AssignmentError(f"packet {packet}: wrong block count at level {level}")
            for v in row:
                if not 1 <= v <= budget:
                    raise AssignmentError(f"value {v} outside [1, {budget}] at level {level}")
            self.values[packet][level] = list(row)
        self.frontier = level + 1

    def fill_remaining(self, value: int = 1) -> None:
        while self.frontier < self.n_levels:
            self.set_level(
                self.frontier,
                [[value] * self.tree.n_blocks(self.frontier) for _ in range(self.n_packets)],
            )

    def randomize_remaining(self, rng) -> None:
        while self.frontier < self.n_levels:
            budget = self.tree.ladder.levels[self.frontier].wait_budget
            self.set_level(
                self.frontier,
                [
                    [rng.randint(1, budget) for _ in range(self.tree.n_blocks(self.frontier))]
                    for _ in range(self.n_packets)
                ],
            )

    @property
    def fully_fixed(self) -> bool:
        return self.frontier == self.n_levels


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
    if tree.kind == "plain":
        return ((pos - 1) // lv.block_len) * lv.wait_budget, None
    if level == 0:
        return 0, None
    idx = tree.block_index(level, pos)
    block = tree.blocks(level)[idx]
    return idx * lv.wait_budget, duty_count_table(block, lv.wait_budget, pos)


def _delay_of(table: tuple[int, ...] | None, draw: int) -> int:
    return draw if table is None else table[draw - 1]


class PositionTerms(NamedTuple):
    """What the dissection alone decides about one edge position.

    A crossing slot is `offset` plus, per level, the delay that level's draw
    for block `blocks[level]` adds through `tables[level]`; nothing here
    depends on the packet.
    """

    offset: int  # pos plus every level's deterministic offset
    blocks: tuple[int, ...]  # containing block, per level
    tables: tuple[tuple[int, ...] | None, ...]  # delay per draw, per level


def position_terms(tree: Tree, pos: int) -> PositionTerms:
    offset = pos
    blocks: list[int] = []
    tables: list[tuple[int, ...] | None] = []
    for level in range(len(tree.ladder.levels)):
        det, table = _contribution(tree, level, pos)
        offset += det
        blocks.append(tree.block_index(level, pos))
        tables.append(table)
    return PositionTerms(offset, tuple(blocks), tuple(tables))


def fixed_delay(terms: PositionTerms, values: list[list[int | None]], levels: int) -> int:
    """Delay the first `levels` levels add, given one packet's fixed draws."""
    total = 0
    for level in range(levels):
        total += _delay_of(terms.tables[level], values[level][terms.blocks[level]])
    return total


def residual_law(tree: Tree, from_level: int, pos: int) -> tuple[int, list[tuple[int, float]]]:
    """Law of the delay that levels from_level.. add at pos while all are open.

    Open levels are independent uniform draws, so the law is the convolution
    of their per-level delay laws. Returns (shift, tail): levels whose delay
    is certain fold into `shift`, and `tail` lists (delay, probability) in
    ascending delay order. It depends on the position only.
    """
    shift = 0
    dist: Distribution = {0: 1.0}
    for level in range(from_level, len(tree.ladder.levels)):
        _, table = _contribution(tree, level, pos)
        budget = tree.ladder.levels[level].wait_budget
        weight = 1.0 / budget
        level_law: Distribution = {}
        for draw in range(1, budget + 1):
            d = _delay_of(table, draw)
            level_law[d] = level_law.get(d, 0.0) + weight
        if len(level_law) == 1:
            shift += next(iter(level_law))
            continue
        new: Distribution = {}
        for t, p in dist.items():
            for d, q in level_law.items():
                key = t + d
                new[key] = new.get(key, 0.0) + p * q
        dist = new
    return shift, sorted(dist.items())


def crossing_time(tree: Tree, assignment: DelayAssignment, packet: int, pos: int) -> int:
    """Slot in which `packet` crosses edge position `pos` (fully fixed only)."""
    if not assignment.fully_fixed:
        raise AssignmentError("assignment incomplete: crossing_time needs all levels fixed")
    terms = position_terms(tree, pos)
    return terms.offset + fixed_delay(terms, assignment.values[packet], assignment.n_levels)


def crossing_distribution(
    tree: Tree, assignment: DelayAssignment, packet: int, pos: int
) -> Distribution:
    """Exact law of the crossing slot given the fixed prefix of levels.

    The open levels' residual law, shifted by everything already determined.
    """
    terms = position_terms(tree, pos)
    shift, tail = residual_law(tree, assignment.frontier, pos)
    base = terms.offset + fixed_delay(terms, assignment.values[packet], assignment.frontier) + shift
    return {base + t: p for t, p in tail}


def expected_load(
    padded: PaddedInstance, tree: Tree, assignment: DelayAssignment
) -> LoadTable:
    """Conditional expected number of crossings per (edge, slot).

    Sum of independent per-packet crossing laws; with nothing fixed this
    never exceeds 1 because padding guarantees congestion <= path length.
    """
    table: LoadTable = {}
    for packet, path in enumerate(padded.padded.paths):
        for pos, edge_id in enumerate(path, start=1):
            for slot, p in crossing_distribution(tree, assignment, packet, pos).items():
                key = (edge_id, slot)
                table[key] = table.get(key, 0.0) + p
    return table
